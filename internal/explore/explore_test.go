package explore

import (
	"strings"
	"testing"
)

// TestExecuteIsPureFunctionOfPlan is the determinism contract: executing
// the same plan twice yields the same schedule, tape, verdicts, and trace
// hash — across every strategy.
func TestExecuteIsPureFunctionOfPlan(t *testing.T) {
	for _, strat := range []Strategy{StrategyWalk, StrategyPattern, StrategyPBound} {
		p := Plan{Target: "qa-counter", Seed: 11, Steps: 60_000, Strategy: strat}
		a, err := Execute(p)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		b, err := Execute(p)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if a.TraceHash != b.TraceHash {
			t.Fatalf("%s: trace hashes differ: %s vs %s", strat, a.TraceHash, b.TraceHash)
		}
		if !verdictsEqual(a.Verdicts, b.Verdicts) {
			t.Fatalf("%s: verdicts differ: %v vs %v", strat, a.Verdicts, b.Verdicts)
		}
		if a.Tape != b.Tape {
			t.Fatalf("%s: tapes differ (%d vs %d bits)", strat, len(a.Tape), len(b.Tape))
		}
		if len(a.Schedule) != len(b.Schedule) {
			t.Fatalf("%s: schedule lengths differ: %d vs %d", strat, len(a.Schedule), len(b.Schedule))
		}
		for i := range a.Schedule {
			if a.Schedule[i] != b.Schedule[i] {
				t.Fatalf("%s: schedules diverge at step %d", strat, i)
			}
		}
	}
}

// TestPinnedPrefixReplaysByteExactly checks the recording/replay loop: a
// run's executed schedule and tape, pinned back into the plan, reproduce
// the identical run even though the strategy generator is never consulted.
func TestPinnedPrefixReplaysByteExactly(t *testing.T) {
	p := Plan{Target: "qa-counter", Seed: 5, Steps: 50_000, Strategy: StrategyWalk}
	orig, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Idle {
		t.Fatalf("qa-counter should settle within %d steps", p.Steps)
	}
	// Pin the executed schedule and tape, then switch the strategy: the run
	// settles inside the prefix, so the (now different) generator must never
	// influence it. The seed stays — it also feeds the workload stream.
	pinned := p
	pinned.Prefix = orig.Schedule
	pinned.Tape = orig.Tape
	pinned.Strategy = StrategyPattern
	rep, err := Execute(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceHash != orig.TraceHash {
		t.Fatalf("pinned replay hash %s, want %s", rep.TraceHash, orig.TraceHash)
	}
	if !verdictsEqual(rep.Verdicts, orig.Verdicts) {
		t.Fatalf("pinned replay verdicts %v, want %v", rep.Verdicts, orig.Verdicts)
	}
}

// TestReplayDeterminismEndToEnd is the PR's acceptance path: fuzz an
// ablated target with a fixed seed, capture the induced failure as an
// artifact, shrink it, and replay the shrunk artifact to the same verdict
// and trace hash.
func TestReplayDeterminismEndToEnd(t *testing.T) {
	tgt, err := TargetByName("heartbeat-single")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Fuzz(Config{Targets: []Target{tgt}, Seeds: 8, BaseSeed: 1, Budget: 200_000, Parallel: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failures == 0 {
		t.Fatal("ablated heartbeat-single produced no failures in 8 seeds")
	}
	f := sum.Findings[0]

	// The artifact replays byte-exactly.
	res, err := Replay(f.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact() {
		t.Fatalf("artifact replay diverged: hash=%v verdicts=%v", res.HashMatch, res.VerdictsMatch)
	}

	// Shrinking preserves the failing oracle and reduces the plan.
	min, stats, err := Shrink(f.Artifact, 40)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Oracle != "hb-suspects-slow-sender" {
		t.Fatalf("shrink preserved oracle %q, want hb-suspects-slow-sender", stats.Oracle)
	}
	if min.Plan.Steps >= f.Artifact.Plan.Steps && stats.PinnedAfter >= stats.PinnedBefore {
		t.Fatalf("shrink reduced nothing: %s", stats)
	}

	// The shrunk artifact still fails the same oracle and replays exactly.
	minRes, err := Replay(min)
	if err != nil {
		t.Fatal(err)
	}
	if !minRes.Exact() {
		t.Fatalf("shrunk artifact replay diverged: hash=%v verdicts=%v", minRes.HashMatch, minRes.VerdictsMatch)
	}
	if !failsSame(minRes.Outcome, stats.Oracle) {
		t.Fatalf("shrunk artifact no longer fails %s: %v", stats.Oracle, minRes.Outcome.Verdicts)
	}

	// Artifacts survive an encode/decode round trip.
	enc, err := min.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeArtifact(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.TraceHash != min.TraceHash || dec.Plan.Target != min.Plan.Target || dec.Plan.Tape != min.Plan.Tape {
		t.Fatal("artifact round trip lost fields")
	}
}

// TestAblationTeeth is the other acceptance criterion: the fuzzer finds the
// A1–A3 ablation failures (and the oracle self-tests) within a CI-sized
// budget. The non-ablated counterparts stay green under the same sweep.
func TestAblationTeeth(t *testing.T) {
	if testing.Short() {
		t.Skip("full ablation sweep (~150 runs at 200k steps) skipped in -short mode")
	}
	// Seed counts are sized from measured failure rates at budget 200000
	// (heartbeat-single 18/32, churn 12/32, messenger 6/32, misreport 32/32,
	// nogate 27/32, nerio-nodepose 18/32, reputation-nopenalty 12/32):
	// enough seeds that each ablation reliably fires.
	cases := []struct {
		ablated, control string
		budget           int64
		seeds            int
	}{
		{"heartbeat-single", "heartbeat-dual", 200_000, 16},       // A1
		{"omega-churn-noselfpunish", "omega-churn", 200_000, 16},  // A2
		{"messenger-nobackoff", "messenger-backoff", 200_000, 32}, // A3
		{"qa-counter-misreport", "qa-counter", 200_000, 4},        // lincheck self-test
		{"monitor-nogate", "monitor-pair", 200_000, 8},            // Def 9 Property 5b
		// Bake-off negative controls: each non-Ω∆-correct elector must be
		// caught by the seam-level oracles its sound counterpart passes.
		{"elector-nerio-nodepose", "elector-nerio", 200_000, 16},
		{"elector-reputation-nopenalty", "elector-reputation-churn", 200_000, 16},
		// Quorum intersection: read quorum 1 on the ABD substrate lets
		// clients read replicas the write quorum never touched (measured
		// 4/32 at budget 300000); the majority-quorum control stays green.
		{"net/partition-rq1", "net/partition", 300_000, 32},
		// Batch fence: rotated batch responses break per-shard
		// linearizability (measured 26/32 at budget 800000); the fenced
		// control stays green.
		{"shard/kv-nobatchfence", "shard/kv", 800_000, 8},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.ablated, func(t *testing.T) {
			t.Parallel()
			abl, err := TargetByName(tc.ablated)
			if err != nil {
				t.Fatal(err)
			}
			ctl, err := TargetByName(tc.control)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := Fuzz(Config{Targets: []Target{abl, ctl}, Seeds: tc.seeds, BaseSeed: 1, Budget: tc.budget, Parallel: 0})
			if err != nil {
				t.Fatal(err)
			}
			if len(sum.Errors) > 0 {
				t.Fatalf("infrastructure errors: %v", sum.Errors)
			}
			var ablFails, ctlFails int
			for _, ts := range sum.PerTarget {
				switch ts.Target {
				case tc.ablated:
					ablFails = ts.Failures
				case tc.control:
					ctlFails = ts.Failures
				}
			}
			if ablFails == 0 {
				t.Errorf("ablated %s: no failures in %d seeds at budget %d", tc.ablated, tc.seeds, tc.budget)
			}
			if ctlFails != 0 {
				for _, f := range sum.Findings {
					if f.Target == tc.control {
						t.Errorf("control %s seed %d failed: %v", tc.control, f.Seed, f.Artifact.Verdicts)
					}
				}
			}
		})
	}
}

// TestPanicArtifactPath checks that a task panic becomes a failing
// "no-panic" verdict whose artifact replays deterministically, with the
// stack kept out of the (replay-compared) verdict but present in Err.
func TestPanicArtifactPath(t *testing.T) {
	tgt, err := TargetByName("selftest-panic")
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(tgt, 7, 10_000)
	out, err := SafeExecute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Failed() {
		t.Fatalf("selftest-panic did not fail: %v", out.Verdicts)
	}
	v := out.FirstFailure()
	if v.Oracle != "no-panic" {
		t.Fatalf("failing oracle %q, want no-panic", v.Oracle)
	}
	if strings.Contains(v.Detail, "goroutine") {
		t.Fatal("verdict detail contains a stack trace; replays would diverge")
	}
	if !strings.Contains(out.Err, "goroutine") {
		t.Fatal("outcome Err lost the captured stack")
	}
	res, err := Replay(NewArtifact(plan, out))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact() {
		t.Fatalf("panic artifact replay diverged: hash=%v verdicts=%v", res.HashMatch, res.VerdictsMatch)
	}
}

// TestPlanScheduleHolesAndDeadPids: prefix holes (-1) and entries naming a
// non-schedulable process fall back to the stateless rotation.
func TestPlanScheduleHolesAndDeadPids(t *testing.T) {
	s := newPlanSchedule(Plan{
		Seed:     1,
		Strategy: StrategyWalk,
		Prefix:   []int32{2, -1, 0, 7},
	}, 100)
	alive := []int{0, 2}
	if got := s.Next(0, alive); got != 2 {
		t.Fatalf("step 0: got %d, want pinned 2", got)
	}
	if got := s.Next(1, alive); got != alive[1%2] {
		t.Fatalf("step 1 (hole): got %d, want rotation %d", got, alive[1%2])
	}
	if got := s.Next(2, alive); got != 0 {
		t.Fatalf("step 2: got %d, want pinned 0", got)
	}
	if got := s.Next(3, alive); got != alive[3%2] {
		t.Fatalf("step 3 (dead pid 7): got %d, want rotation %d", got, alive[3%2])
	}
	// Past the prefix the strategy base takes over; it must pick an alive id.
	for step := int64(4); step < 50; step++ {
		got := s.Next(step, alive)
		if got != 0 && got != 2 {
			t.Fatalf("step %d: schedule picked dead process %d", step, got)
		}
	}
}

// TestStrategySchedulesStayInAliveSet exercises the pattern and segment
// generators over awkward alive sets, including a singleton.
func TestStrategySchedulesStayInAliveSet(t *testing.T) {
	for _, strat := range []Strategy{StrategyPattern, StrategyPBound, StrategyDLS} {
		for seed := int64(1); seed <= 20; seed++ {
			s := newStrategySchedule(Plan{Strategy: strat}, seed, 1_000)
			alive := []int{1, 3, 4}
			for step := int64(0); step < 200; step++ {
				if step == 100 {
					alive = []int{3} // processes 1 and 4 die
				}
				got := s.Next(step, alive)
				if !containsInt(alive, got) {
					t.Fatalf("%s seed %d step %d: picked %d, alive %v", strat, seed, step, got, alive)
				}
			}
		}
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestNewPlanGenerator: plans are deterministic in (target, seed), respect
// NoCrashes, and always crash MustCrash targets mid-run.
func TestNewPlanGenerator(t *testing.T) {
	mon, err := TargetByName("monitor-pair")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 50; seed++ {
		p := NewPlan(mon, seed, 0)
		q := NewPlan(mon, seed, 0)
		if p.Strategy != q.Strategy || len(p.Crashes) != len(q.Crashes) || p.Seed != q.Seed {
			t.Fatalf("seed %d: NewPlan is not deterministic: %+v vs %+v", seed, p, q)
		}
		// The forced MustCrash injection is always first, in the second
		// quarter of the run; a further random crash may follow it.
		if len(p.Crashes) == 0 || p.Crashes[0].Proc != 1 {
			t.Fatalf("seed %d: MustCrash target generated no forced crash: %v", seed, p.Crashes)
		}
		if c := p.Crashes[0]; c.Step < p.Steps/4 || c.Step >= p.Steps/2 {
			t.Fatalf("seed %d: forced crash at step %d outside [%d,%d)", seed, c.Step, p.Steps/4, p.Steps/2)
		}
	}
	qa, err := TargetByName("qa-counter")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 50; seed++ {
		if p := NewPlan(qa, seed, 0); len(p.Crashes) != 0 {
			t.Fatalf("seed %d: NoCrashes target got crashes %v", seed, p.Crashes)
		}
	}
}

// TestTargetRegistry: names are unique and resolvable; unknown names error.
func TestTargetRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, tgt := range Targets() {
		if tgt.Name == "" || tgt.N < 1 || tgt.Steps < 1 || tgt.Rig == nil || len(tgt.Oracles) == 0 {
			t.Fatalf("malformed target %+v", tgt)
		}
		if seen[tgt.Name] {
			t.Fatalf("duplicate target name %q", tgt.Name)
		}
		seen[tgt.Name] = true
		if _, err := TargetByName(tgt.Name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := TargetByName("no-such-target"); err == nil {
		t.Fatal("TargetByName accepted an unknown name")
	}
	if _, err := Execute(Plan{Target: "no-such-target"}); err == nil {
		t.Fatal("Execute accepted an unknown target")
	}
}

// TestMixStreamsAreIndependent: derived stream seeds differ across streams
// and across seeds.
func TestMixStreamsAreIndependent(t *testing.T) {
	streams := []int64{streamSchedule, streamTape, streamTarget, streamGen}
	seen := map[int64]bool{}
	for seed := int64(0); seed < 100; seed++ {
		for _, st := range streams {
			v := mix(seed, st)
			if v < 0 {
				t.Fatalf("mix(%d,%d) = %d, want non-negative (rand.NewSource seed)", seed, st, v)
			}
			if seen[v] {
				t.Fatalf("mix collision at seed %d stream %#x", seed, st)
			}
			seen[v] = true
		}
	}
}

// TestFuzzSummaryDeterministic: the same campaign config yields the same
// summary regardless of worker-pool size.
func TestFuzzSummaryDeterministic(t *testing.T) {
	tgt, err := TargetByName("monitor-nogate")
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallel int) *Summary {
		sum, err := Fuzz(Config{Targets: []Target{tgt}, Seeds: 4, BaseSeed: 3, Budget: 60_000, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := run(1), run(4)
	if a.Runs != b.Runs || a.Failures != b.Failures || len(a.Findings) != len(b.Findings) {
		t.Fatalf("summaries differ across pool sizes: %+v vs %+v", a, b)
	}
	for i := range a.Findings {
		if a.Findings[i].Seed != b.Findings[i].Seed || a.Findings[i].Artifact.TraceHash != b.Findings[i].Artifact.TraceHash {
			t.Fatalf("finding %d differs across pool sizes", i)
		}
	}
}
