package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tbwf/internal/explore"
)

// TestFuzzThenReplayRoundTrip drives the CLI end to end: fuzz the
// always-failing selftest target into an artifact directory, then replay
// the artifact (which must reproduce byte-exactly) and shrink it.
func TestFuzzThenReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{
		"-target", "selftest-panic",
		"-seeds", "2",
		"-budget", "10000",
		"-out", dir,
	}, &out)
	if err == nil {
		t.Fatalf("fuzzing selftest-panic exited zero; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL selftest-panic") {
		t.Fatalf("missing FAIL line in output:\n%s", out.String())
	}

	matches, globErr := filepath.Glob(filepath.Join(dir, "selftest-panic-seed*.json"))
	if globErr != nil || len(matches) == 0 {
		t.Fatalf("no artifacts written to %s (%v)", dir, globErr)
	}

	out.Reset()
	if err := run([]string{"-replay", matches[0], "-shrink", "-shrink-attempts", "30"}, &out); err != nil {
		t.Fatalf("replay failed: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replay reproduces the artifact byte-exactly") {
		t.Fatalf("replay did not report exact reproduction:\n%s", out.String())
	}
	minPath := strings.TrimSuffix(matches[0], ".json") + ".min.json"
	if _, err := os.Stat(minPath); err != nil {
		t.Fatalf("shrunk artifact not written: %v", err)
	}

	// The shrunk artifact replays too.
	out.Reset()
	if err := run([]string{"-replay", minPath}, &out); err != nil {
		t.Fatalf("shrunk replay failed: %v\noutput:\n%s", err, out.String())
	}
}

// TestCleanSweepExitsZero: a passing target at a small budget exits zero
// and prints the summary table.
func TestCleanSweepExitsZero(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-target", "qa-counter", "-seeds", "2", "-budget", "60000"}, &out); err != nil {
		t.Fatalf("clean sweep returned %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"FUZZ", "qa-counter", "all 2 runs passed"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestListAndErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"qa-counter", "! heartbeat-single", "marked ! are ablated",
		"oracles=lincheck", "oracles=log-accounting,tbwf-progress", "frontier/monitor-adaptive"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
	// The columns are sized from the registry, so the longest name and the
	// longest oracle list do not shear them: every target's line has its n=
	// at one column and its description at another.
	lines := strings.Split(out.String(), "\n")
	nCol, descCol := strings.Index(lines[0], " n="), strings.Index(lines[0], explore.Targets()[0].Desc)
	for i, tgt := range explore.Targets() {
		if !strings.Contains(lines[i], " "+tgt.Name+" ") {
			t.Fatalf("-list line %d is not %s's: %q", i, tgt.Name, lines[i])
		}
		if n, desc := strings.Index(lines[i], " n="), strings.Index(lines[i], tgt.Desc); n != nCol || desc != descCol {
			t.Fatalf("-list columns shear at %q: n= at %d (want %d), description at %d (want %d)", lines[i], n, nCol, desc, descCol)
		}
	}

	if err := run([]string{"-target", "no-such-target"}, &out); err == nil {
		t.Fatal("unknown target accepted")
	}
	if err := run([]string{"-replay", filepath.Join(t.TempDir(), "missing.json")}, &out); err == nil {
		t.Fatal("missing replay file accepted")
	}
}

// TestReplayRejectsWrongVersionUpFront: a stale artifact is refused with
// the expected-vs-found version message, not a decode error or panic.
func TestReplayRejectsWrongVersionUpFront(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"plan":{"target":"qa-counter","seed":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-replay", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "expected 3, found 1") {
		t.Fatalf("stale artifact: got %v, want expected-vs-found version error", err)
	}
}

// TestGuidedMode: the coverage-guided loop runs through the CLI and
// reports its corpus counters.
func TestGuidedMode(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-target", "qa-counter", "-guided", "-seeds", "12", "-budget", "20000"}, &out); err != nil {
		t.Fatalf("guided sweep returned %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"coverage:", "state signatures", "corpus", "all guided runs passed"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("guided output missing %q:\n%s", want, out.String())
		}
	}
}

// TestFrontierMode: a tiny grid sweep renders the map, writes the JSON
// document, and exits zero even though the ablated target fails cells.
func TestFrontierMode(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier sweep is a multi-run campaign")
	}
	path := filepath.Join(t.TempDir(), "frontier.json")
	var out strings.Builder
	err := run([]string{
		"-target", "frontier/monitor-fixed",
		"-frontier", "phi=1,8,delta=0,16",
		"-seeds", "1",
		"-frontier-out", path,
	}, &out)
	if err != nil {
		t.Fatalf("frontier sweep returned %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"frontier sweep:", "| Φ \\ Δ |", "ablated — failures expected", "wrote "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("frontier output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"schema": "tbwf-frontier/v1"`) {
		t.Fatalf("frontier document missing schema:\n%s", data)
	}

	if err := run([]string{"-target", "qa-counter", "-frontier", "phi=1"}, &out); err == nil {
		t.Fatal("spec without delta accepted")
	}
}

func TestNonPositiveParallelRejected(t *testing.T) {
	var out strings.Builder
	for _, v := range []string{"0", "-2"} {
		if err := run([]string{"-target", "heartbeat-single", "-seeds", "1", "-parallel", v}, &out); err == nil {
			t.Errorf("-parallel %s accepted", v)
		}
	}
}
