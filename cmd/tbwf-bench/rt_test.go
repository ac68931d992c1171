package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goodRTDoc returns a minimal valid rt document.
func goodRTDoc() rtDoc {
	doc := rtDoc{Schema: rtSchema, NumCPU: 1, Go: "go1.24.0"}
	for _, name := range rtRequiredLeaves {
		doc.Benchmarks = append(doc.Benchmarks, rtEntry{
			Name: name, N: 100, NsPerOp: 100, OpsPerSec: 1e7,
		})
	}
	doc.Derived = rtDerived{ServeQueueSpeedup8P: 1.5, GateTimerAllocsSaved: 3, InvokeAllocsPerOp: 0}
	doc.Load = &rtLoad{Source: "tbwf-load", TotalOps: 1000, TimelyP99US: 900}
	return doc
}

func writeDoc(t *testing.T, doc rtDoc) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_rt.json")
	if err := writeRTJSON(path, doc); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateRTDocAcceptsGood(t *testing.T) {
	if err := validateRTDoc(writeDoc(t, goodRTDoc())); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

func TestValidateRTDocRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*rtDoc)
		want string
	}{
		{"wrong schema", func(d *rtDoc) { d.Schema = "nope/v1" }, "schema"},
		{"missing leaf", func(d *rtDoc) { d.Benchmarks = d.Benchmarks[1:] }, "missing benchmark"},
		{"speedup below floor", func(d *rtDoc) { d.Derived.ServeQueueSpeedup8P = 1.1 }, "speedup"},
		{"invoke path allocates", func(d *rtDoc) { d.Derived.InvokeAllocsPerOp = 0.5 }, "allocates"},
		{"no load leg", func(d *rtDoc) { d.Load = nil }, "tbwf-load"},
		{"idle service steps", func(d *rtDoc) { d.Derived.IdleStepsPerSec = 1200 }, "steps/s"},
		{"idle service burns cpu", func(d *rtDoc) { d.Derived.IdleCPUPercent = 40 }, "of a core"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := goodRTDoc()
			tc.mut(&doc)
			err := validateRTDoc(writeDoc(t, doc))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// -check sniffs schemas: it must validate the repo's committed documents
// of all three kinds in one invocation.
func TestCheckCommittedDocs(t *testing.T) {
	var paths []string
	for _, f := range []string{"BENCH_deploy.json", "BENCH_net.json", "BENCH_shard.json", "BENCH_frontier.json", "BENCH_rt.json"} {
		p := filepath.Join("..", "..", f)
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("committed document %s missing: %v", f, err)
		}
		paths = append(paths, p)
	}
	if err := run([]string{"-check", strings.Join(paths, ",")}); err != nil {
		t.Fatalf("-check over committed documents: %v", err)
	}
}

func TestCheckRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus.json")
	if err := os.WriteFile(path, []byte(`{"schema":"mystery/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-check", path})
	if err == nil {
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

// The perf gate must reject allocation growth and ratio collapse without
// depending on the host's absolute speed. compareRTDoc re-runs the real
// benchmarks, which is too slow for unit tests, so the comparison logic
// is exercised through validateRTDoc plus this decode-level check on the
// committed snapshot.
func TestCommittedRTDocDecodes(t *testing.T) {
	doc, err := decodeRTDoc(filepath.Join("..", "..", "BENCH_rt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Derived.ServeQueueSpeedup8P < 1.3 {
		t.Fatalf("committed speedup %.2fx below the 1.3x acceptance floor", doc.Derived.ServeQueueSpeedup8P)
	}
	if doc.Derived.InvokeAllocsPerOp > 0.05 {
		t.Fatalf("committed invoke path allocates %.3f/op", doc.Derived.InvokeAllocsPerOp)
	}
	if doc.Derived.GateTimerAllocsSaved < 1 {
		t.Fatalf("committed gate parking saves %.1f allocs/gap, want at least 1", doc.Derived.GateTimerAllocsSaved)
	}
}
