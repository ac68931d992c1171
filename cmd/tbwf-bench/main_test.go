package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSubsetWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-run", "A3", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "a3-ablate-reader-backoff.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("csv not written: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("csv empty")
	}
}

func TestParallelAndStatsFlags(t *testing.T) {
	if err := run([]string{"-quick", "-run", "A3", "-parallel", "2", "-stats"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	if err := run([]string{"-run", "E99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBadFlagRejected(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// -check validates and exits, so any other flag beside it would be
// accepted and then ignored; the combination is an error and nothing runs.
func TestCheckRejectsOtherFlags(t *testing.T) {
	doc := filepath.Join("..", "..", "BENCH_frontier.json")
	out := filepath.Join(t.TempDir(), "out.json")
	for _, extra := range [][]string{
		{"-json", out}, {"-run", "A3"}, {"-csv", t.TempDir()}, {"-list"}, {"-quick"}, {"-stats"}, {"-parallel", "2"},
	} {
		err := run(append([]string{"-check", doc}, extra...))
		if err == nil || !strings.Contains(err.Error(), extra[0]) {
			t.Errorf("-check with %s: got %v, want an error naming the flag", extra[0], err)
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("-check with -json wrote a results file")
	}
}

func TestNonPositiveParallelRejected(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		if err := run([]string{"-quick", "-run", "A3", "-parallel", v}); err == nil {
			t.Errorf("-parallel %s accepted", v)
		}
	}
	// Omitting the flag keeps the one-worker-per-CPU default.
	if err := run([]string{"-quick", "-run", "A3"}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONResults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := run([]string{"-quick", "-run", "A3", "-json", path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("json not written: %v", err)
	}
	var doc benchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("results do not parse: %v", err)
	}
	if doc.Schema != benchSchema || !doc.Quick || doc.NumCPU < 1 {
		t.Fatalf("header = %+v", doc)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("benchmarks = %+v", doc.Benchmarks)
	}
	b := doc.Benchmarks[0]
	if b.ID != "A3" || b.Steps <= 0 || b.StepsPerSec <= 0 || b.AllocsPerStep < 0 || b.WallSeconds <= 0 {
		t.Fatalf("benchmark record = %+v", b)
	}
}

// -check sniffs schemas: one invocation validates a fresh -json document
// and the committed frontier map, as CI's bench-smoke does.
func TestCheckCommittedDocs(t *testing.T) {
	fresh := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-quick", "-run", "A3", "-json", fresh}); err != nil {
		t.Fatal(err)
	}
	frontier := filepath.Join("..", "..", "BENCH_frontier.json")
	if err := run([]string{"-check", fresh + "," + frontier}); err != nil {
		t.Fatalf("-check over a fresh document and the committed frontier: %v", err)
	}
}

func TestCheckRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus.json")
	if err := os.WriteFile(path, []byte(`{"schema":"mystery/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-check", path}); err == nil {
		t.Fatal("-check accepted an unknown schema")
	}
}

func TestCheckRejectsEmptyBenchDoc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(path, []byte(`{"schema":"tbwf-bench/v1","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-check", path}); err == nil {
		t.Fatal("-check accepted a bench document with no entries")
	}
}

// TestCheckFrontier: -check accepts a well-formed frontier document and
// rejects inconsistent grids.
func TestCheckFrontier(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.json", `{"schema":"tbwf-frontier/v1","phis":[1,8],"deltas":[0],"seeds":1,
		"targets":[{"target":"t","cells":[
			{"phi":1,"delta":0,"runs":1,"passes":1},
			{"phi":8,"delta":0,"runs":1,"fails":1}]}]}`)
	if err := run([]string{"-check", good}); err != nil {
		t.Fatalf("good document rejected: %v", err)
	}
	empty := write("empty.json", `{"schema":"tbwf-frontier/v1"}`)
	if err := run([]string{"-check", empty}); err == nil {
		t.Fatal("frontier document without a grid accepted")
	}
	badGrid := write("grid.json", `{"schema":"tbwf-frontier/v1","phis":[1,8],"deltas":[0],"seeds":1,
		"targets":[{"target":"t","cells":[{"phi":1,"delta":0,"runs":1,"passes":1}]}]}`)
	if err := run([]string{"-check", badGrid}); err == nil {
		t.Fatal("truncated cell grid accepted")
	}
	badSum := write("sum.json", `{"schema":"tbwf-frontier/v1","phis":[1],"deltas":[0],"seeds":2,
		"targets":[{"target":"t","cells":[{"phi":1,"delta":0,"runs":2,"passes":1}]}]}`)
	if err := run([]string{"-check", badSum}); err == nil {
		t.Fatal("inconsistent outcome counts accepted")
	}
	if err := run([]string{"-check", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing file accepted")
	}
}
