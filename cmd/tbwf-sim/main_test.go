package main

import (
	"strings"
	"testing"
)

func TestBasicScenario(t *testing.T) {
	if err := run([]string{"-n", "3", "-steps", "400000", "-wanted", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestUntimelyAndCrash(t *testing.T) {
	if err := run([]string{"-n", "3", "-steps", "400000", "-untimely", "1", "-crash", "1@100000", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsFlag(t *testing.T) {
	if err := run([]string{"-n", "2", "-steps", "100000", "-stats"}); err != nil {
		t.Fatal(err)
	}
}

func TestAbortableOmega(t *testing.T) {
	if err := run([]string{"-n", "2", "-steps", "600000", "-elector", "abortable", "-wanted", "1"}); err != nil {
		t.Fatal(err)
	}
}

// The -elector flag deploys the imported electors through the same stack.
func TestElectorFlag(t *testing.T) {
	if err := run([]string{"-n", "3", "-steps", "400000", "-elector", "nerio", "-wanted", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "3", "-steps", "400000", "-elector", "reputation", "-wanted", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "1"},
		{"-n", "3", "-untimely", "3"},
		{"-omega", "abortable"}, // the old alias of -elector is gone
		{"-elector", "nope"},
		{"-elector", "atomic-registers"}, // a telemetry name, not a flag value
		{"-crash", "garbage"},
		{"-crash", "x@y"},
		{"-n", "3", "-crash", "7@100"},
		{"-n", "3", "-crash", "-1@100"},
		{"-substrate", "rt"}, // the live runtime is tbwf-serve's substrate
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// An unknown -substrate names the accepted vocabulary in the error.
func TestSubstrateFlagValidation(t *testing.T) {
	err := run([]string{"-substrate", "rt"})
	if err == nil {
		t.Fatal("run accepted -substrate rt")
	}
	for _, want := range []string{"rt", "sim", "net"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// -substrate net deploys the same stack on quorum registers over the
// deterministic fabric; the run completes its targets like the sim run.
func TestNetSubstrateScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("quorum rounds cost fabric round-trips; skipped in -short mode")
	}
	if err := run([]string{"-n", "3", "-steps", "4000000", "-substrate", "net", "-wanted", "2", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
}
