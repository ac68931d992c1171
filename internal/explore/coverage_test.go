package explore

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tbwf/internal/adversary"
)

// TestPlanJSONRoundTripAllStrategies: a plan for every strategy — including
// a dls plan carrying its adversary policy — survives the JSON round trip
// field-for-field, and a non-dls plan omits the policy entirely.
func TestPlanJSONRoundTripAllStrategies(t *testing.T) {
	for _, strat := range []Strategy{StrategyWalk, StrategyPattern, StrategyPBound, StrategyDLS} {
		p := Plan{
			Target:   "qa-counter",
			Seed:     42,
			Steps:    10_000,
			Strategy: strat,
			Prefix:   []int32{0, -1, 2},
			Tape:     "0110",
			Crashes:  []Crash{{Proc: 1, Step: 5_000}},
		}
		if strat == StrategyDLS {
			p.DLS = &adversary.DLS{Phi: 5, Delta: 12}
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if strat != StrategyDLS && strings.Contains(string(enc), "dls") {
			t.Fatalf("%s: plan encoding mentions dls: %s", strat, enc)
		}
		var back Plan
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", strat, back, p)
		}
	}
}

// TestDLSArtifactReplaysByteExactly: a dls-strategy failure artifact
// replays to the same trace hash and verdicts through the full
// encode/decode cycle — the recording/replay contract extended to the
// fourth strategy.
func TestDLSArtifactReplaysByteExactly(t *testing.T) {
	tgt, err := TargetByName("frontier/monitor-fixed")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(tgt, 3, 80_000)
	p.Strategy = StrategyDLS
	p.DLS = &adversary.DLS{Phi: 8, Delta: 16}
	out, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Failed() {
		t.Fatalf("monitor-fixed under dls(8,16) should fail: %v", out.Verdicts)
	}
	enc, err := NewArtifact(p, out).Encode()
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeArtifact(enc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.DLS == nil || *a.Plan.DLS != (adversary.DLS{Phi: 8, Delta: 16}) {
		t.Fatalf("decoded artifact lost the DLS policy: %+v", a.Plan.DLS)
	}
	res, err := Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact() {
		t.Fatalf("dls replay diverged (hash %v, verdicts %v)", res.HashMatch, res.VerdictsMatch)
	}
}

// TestShrinkPreservesDLSPolicy: the shrinker's reduction moves carry the
// plan's adversary policy through unchanged, and its dedicated relaxation
// move only drops the axis the failure does not need (here Δ — the fixed
// monitor fails on the speed bound alone).
func TestShrinkPreservesDLSPolicy(t *testing.T) {
	tgt, err := TargetByName("frontier/monitor-fixed")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(tgt, 3, 80_000)
	p.Strategy = StrategyDLS
	p.DLS = &adversary.DLS{Phi: 8, Delta: 16}
	out, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Failed() {
		t.Fatalf("monitor-fixed under dls(8,16) should fail: %v", out.Verdicts)
	}
	min, stats, err := Shrink(NewArtifact(p, out), 40)
	if err != nil {
		t.Fatal(err)
	}
	if min.Plan.Strategy != StrategyDLS || min.Plan.DLS == nil {
		t.Fatalf("shrink dropped the DLS policy: strategy=%s dls=%+v", min.Plan.Strategy, min.Plan.DLS)
	}
	if min.Plan.DLS.Phi != 8 {
		t.Fatalf("shrink changed the needed speed bound: %+v (stats %s)", min.Plan.DLS, stats)
	}
	if p.DLS.Delta != 16 {
		t.Fatal("shrink mutated the input plan's policy in place")
	}
}

// TestGuidedCoverageBeatsBlind is the tentpole's acceptance assertion: at
// an equal plan budget, the coverage-guided loop reaches strictly more
// distinct state signatures than the blind sweep on the same target.
func TestGuidedCoverageBeatsBlind(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage comparison is a multi-run campaign")
	}
	tgt, err := TargetByName("qa-counter")
	if err != nil {
		t.Fatal(err)
	}
	// 144 plans sits past the blind sweep's saturation knee on this target
	// (fresh seeds keep finding new signatures up to ~100 runs; beyond it
	// the corpus-guided mutants pull ahead). Both campaigns are pure
	// functions of their configs, so the comparison is exact, not flaky.
	const plans, budget = 144, 50_000
	blind, err := Fuzz(Config{Targets: []Target{tgt}, Seeds: plans, BaseSeed: 1, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	guided, err := FuzzGuided(GuidedConfig{Target: tgt, Plans: plans, BaseSeed: 1, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if guided.Runs != blind.Runs {
		t.Fatalf("unequal budgets: guided %d runs, blind %d", guided.Runs, blind.Runs)
	}
	t.Logf("blind: %d sigs / %d hashes; guided: %d sigs / %d hashes (%d mutants, corpus %d)",
		blind.Coverage.StateSigs, blind.Coverage.TraceHashes,
		guided.Coverage.StateSigs, guided.Coverage.TraceHashes,
		guided.Coverage.Mutants, guided.Coverage.Corpus)
	if guided.Coverage.StateSigs <= blind.Coverage.StateSigs {
		t.Fatalf("guided coverage (%d state sigs) does not beat blind (%d) at equal budget of %d plans",
			guided.Coverage.StateSigs, blind.Coverage.StateSigs, plans)
	}
	if guided.Coverage.Mutants == 0 {
		t.Fatal("guided loop executed no mutants: feedback is not wired")
	}
}

// TestFuzzGuidedDeterministic: the guided loop is a pure function of its
// config, independent of the worker-pool size.
func TestFuzzGuidedDeterministic(t *testing.T) {
	tgt, err := TargetByName("qa-counter")
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallel int) *GuidedResult {
		res, err := FuzzGuided(GuidedConfig{Target: tgt, Plans: 12, BaseSeed: 7, Budget: 20_000, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("guided result depends on parallelism:\n p=1: %+v\n p=4: %+v", a, b)
	}
}

// TestArtifactVersionProbe: a stale or alien document is rejected with the
// expected-vs-found message before any full decode is attempted.
func TestArtifactVersionProbe(t *testing.T) {
	if _, err := DecodeArtifact([]byte(`{"version":1,"plan":{"target":"qa-counter"}}`)); err == nil ||
		!strings.Contains(err.Error(), "expected 3, found 1") {
		t.Fatalf("v1 artifact: got %v, want expected-vs-found version error", err)
	}
	// A v2 artifact decodes field for field, but its verdict wording predates
	// the merged oracles: it must be refused up front, not replayed into a
	// spurious verdict mismatch.
	if _, err := DecodeArtifact([]byte(`{"version":2,"plan":{"target":"qa-counter","seed":1},"verdicts":[]}`)); err == nil ||
		!strings.Contains(err.Error(), "expected 3, found 2") {
		t.Fatalf("v2 artifact: got %v, want expected-vs-found version error", err)
	}
	if _, err := DecodeArtifact([]byte(`{"schema":"tbwf-bench/v1"}`)); err == nil ||
		!strings.Contains(err.Error(), "no version field") {
		t.Fatalf("versionless document: got %v, want no-version error", err)
	}
}
