package consensus

import (
	"fmt"
	"testing"

	"tbwf/internal/elector"
	"tbwf/internal/prim"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

func props(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(100 + i)
	}
	return out
}

func checkDecision(t *testing.T, parts []*Participant[int64], procs []int, proposals []int64) {
	t.Helper()
	val, all, agree := DecidedAll(parts, procs)
	if !all {
		t.Fatal("not every correct process decided")
	}
	if !agree {
		t.Fatal("processes decided different values (agreement violated)")
	}
	valid := false
	for _, p := range proposals {
		if p == val {
			valid = true
			break
		}
	}
	if !valid {
		t.Fatalf("decided %d, which no process proposed (validity violated)", val)
	}
}

// The headline: consensus from abortable registers only, everyone timely.
func TestConsensusFromAbortableRegisters(t *testing.T) {
	const n = 4
	k := sim.New(n)
	proposals := props(n)
	parts, err := Build(register.Substrate(k), proposals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(1_500_000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	checkDecision(t, parts, []int{0, 1, 2, 3}, proposals)
}

// One timely process suffices (the paper's condition): the others are
// untimely with growing gaps, yet everyone correct decides.
func TestConsensusWithOneTimelyProcess(t *testing.T) {
	const n = 3
	k := sim.New(n, sim.WithSchedule(sim.Restrict(sim.RoundRobin(), map[int]sim.Availability{
		0: sim.GrowingGaps(300, 500, 1.5),
		1: sim.GrowingGaps(300, 800, 1.5),
	})))
	proposals := props(n)
	parts, err := Build(register.Substrate(k), proposals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(4_000_000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	// The timely process must decide; the untimely ones are correct, so
	// they must decide too, eventually — the budget is sized for their
	// observed gaps.
	checkDecision(t, parts, []int{0, 1, 2}, proposals)
}

// Crashing the first elected leader must not block the decision.
func TestConsensusSurvivesLeaderCrash(t *testing.T) {
	const n = 3
	k := sim.New(n)
	proposals := props(n)
	parts, err := Build(register.Substrate(k), proposals, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Crash process 0 early: with all counters equal, the (counter, id)
	// rule makes it the likely first leader.
	k.CrashAt(0, 50_000)
	if _, err := k.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	checkDecision(t, parts, []int{1, 2}, proposals)
}

// Agreement and validity must hold across random schedules and abort
// policies — liveness may vary, safety may not.
func TestConsensusSafetySweep(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			const n = 4
			k := sim.New(n, sim.WithSchedule(sim.Random(seed, nil)))
			proposals := props(n)
			parts, err := Build(register.Substrate(k), proposals, nil,
				prim.WithAbortPolicy(register.ProbAbort(0.7, seed*31)),
				prim.WithEffectPolicy(register.ProbEffect(0.5, seed*17)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Run(2_000_000); err != nil {
				t.Fatal(err)
			}
			k.Shutdown()
			// Safety: whoever decided must agree on a proposed value.
			var decided []int64
			for p := 0; p < n; p++ {
				if parts[p].Decided.Get() {
					decided = append(decided, parts[p].Value.Get())
				}
			}
			for _, v := range decided {
				if v != decided[0] {
					t.Fatalf("disagreement: %v", decided)
				}
				valid := false
				for _, pr := range proposals {
					valid = valid || pr == v
				}
				if !valid {
					t.Fatalf("decided unproposed value %d", v)
				}
			}
			if len(decided) == 0 {
				t.Log("nobody decided within budget under this adversary (allowed; safety-only check)")
			}
		})
	}
}

// Consensus also runs over the atomic-register Ω∆ (Figure 3).
func TestConsensusWithAtomicOmega(t *testing.T) {
	const n = 3
	k := sim.New(n)
	proposals := props(n)
	parts, err := Build(register.Substrate(k), proposals, elector.Atomic)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	checkDecision(t, parts, []int{0, 1, 2}, proposals)
}

func TestBuildValidation(t *testing.T) {
	k := sim.New(2)
	if _, err := Build(register.Substrate(k), []int64{1}, nil); err == nil {
		t.Error("mismatched proposal count accepted")
	}
	if _, err := New[int64](0, Registers[int64]{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New[int64](2, Registers[int64]{}); err == nil {
		t.Error("nil factories accepted")
	}
}
