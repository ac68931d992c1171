package omegaab

import (
	"testing"

	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

func buildSys(t *testing.T, k *sim.Kernel, opts ...prim.AbOption) (*System, *omega.Observer) {
	t.Helper()
	sys, err := Build(register.Substrate(k), opts...)
	if err != nil {
		t.Fatal(err)
	}
	obs := omega.NewObserver(sys.Instances)
	k.AfterStep(obs.Sample)
	return sys, obs
}

func runK(t *testing.T, k *sim.Kernel, steps int64) {
	t.Helper()
	if _, err := k.Run(steps); err != nil {
		t.Fatal(err)
	}
}

// Theorem 13, easy case: all processes timely permanent candidates, the
// strongest abort adversary — a stable common leader must emerge.
func TestAbortableAllTimelyCandidatesElectStableLeader(t *testing.T) {
	const n = 4
	k := sim.New(n)
	sys, obs := buildSys(t, k)
	for p := 0; p < n; p++ {
		sys.Instances[p].Candidate.Set(true)
	}
	runK(t, k, 400000)
	defer k.Shutdown()

	ell := obs.AgreedLeader([]int{0, 1, 2, 3})
	if ell == omega.NoLeader {
		t.Fatalf("no common leader: %v", obs.Leaders())
	}
	if got := sys.Instances[ell].Leader.Get(); got != ell {
		t.Fatalf("leader %d outputs %d, want itself", ell, got)
	}
	if obs.StabilizedAt() > 350000 {
		t.Fatalf("leader vector still changing at step %d", obs.StabilizedAt())
	}
}

// Same as above under a seeded random schedule, where operation windows
// genuinely collide: the election must still stabilize, and this time the
// abort adversary is demonstrably exercised. (Under deterministic
// round-robin the operation phases happen never to overlap.)
func TestAbortableElectionUnderRandomSchedule(t *testing.T) {
	const n = 4
	k := sim.New(n, sim.WithSchedule(sim.Random(99, nil)))
	sys, obs := buildSys(t, k)
	for p := 0; p < n; p++ {
		sys.Instances[p].Candidate.Set(true)
	}
	runK(t, k, 600000)
	defer k.Shutdown()

	ell := obs.AgreedLeader([]int{0, 1, 2, 3})
	if ell == omega.NoLeader {
		t.Fatalf("no common leader: %v", obs.Leaders())
	}
	if a := sys.Aborts(); a.MsgAborts == 0 && a.HbAborts == 0 {
		t.Error("no aborts recorded; the adversary was not exercised")
	}
}

// A non-candidate must output ? and never compete.
func TestAbortableNonCandidateOutputsUnknown(t *testing.T) {
	const n = 3
	k := sim.New(n)
	sys, obs := buildSys(t, k)
	sys.Instances[0].Candidate.Set(true)
	sys.Instances[2].Candidate.Set(true)
	runK(t, k, 300000)
	defer k.Shutdown()

	if got := sys.Instances[1].Leader.Get(); got != omega.NoLeader {
		t.Fatalf("non-candidate outputs %d, want ?", got)
	}
	ell := obs.AgreedLeader([]int{0, 2})
	if ell != 0 && ell != 2 {
		t.Fatalf("candidates agreed on %d, want one of them; leaders=%v", ell, obs.Leaders())
	}
}

// Theorem 13, hard case: one timely permanent candidate among untimely
// lower-id ones must eventually win at every permanent candidate.
func TestAbortableTimelyCandidateWins(t *testing.T) {
	const n = 3
	k := sim.New(n, sim.WithSchedule(sim.Restrict(sim.RoundRobin(), map[int]sim.Availability{
		0: sim.GrowingGaps(300, 500, 1.6),
	})))
	sys, obs := buildSys(t, k)
	sys.Instances[0].Candidate.Set(true) // untimely
	sys.Instances[2].Candidate.Set(true) // timely
	runK(t, k, 2500000)
	defer k.Shutdown()

	if got := sys.Instances[2].Leader.Get(); got != 2 {
		t.Fatalf("timely candidate outputs leader %d, want itself; leaders=%v", got, obs.Leaders())
	}
	if got := sys.Instances[0].Leader.Get(); got != 2 {
		t.Errorf("untimely permanent candidate outputs %d, want 2", got)
	}
}

// Crash of the elected leader must trigger re-election among survivors.
func TestAbortableLeaderCrashReelection(t *testing.T) {
	const n = 3
	k := sim.New(n)
	sys, obs := buildSys(t, k)
	for p := 0; p < n; p++ {
		sys.Instances[p].Candidate.Set(true)
	}
	runK(t, k, 300000)
	first := obs.AgreedLeader([]int{0, 1, 2})
	if first == omega.NoLeader {
		t.Fatalf("no leader before crash: %v", obs.Leaders())
	}
	k.Crash(first)
	runK(t, k, 1200000)
	defer k.Shutdown()

	var survivors []int
	for p := 0; p < n; p++ {
		if p != first {
			survivors = append(survivors, p)
		}
	}
	second := obs.AgreedLeader(survivors)
	if second == omega.NoLeader || second == first {
		t.Fatalf("survivors output %v after leader %d crashed", obs.Leaders(), first)
	}
}

// The algorithm must also work when aborted writes sometimes take effect
// and contended operations only sometimes abort — the spec allows any such
// mix, and correctness may not depend on the strongest adversary.
func TestAbortablePolicySweep(t *testing.T) {
	policies := []struct {
		name string
		opts []prim.AbOption
	}{
		{"prob-abort-50", []prim.AbOption{prim.WithAbortPolicy(register.ProbAbort(0.5, 11))}},
		{"always-abort-effect-always", []prim.AbOption{prim.WithEffectPolicy(prim.AlwaysEffect())}},
		{"prob-abort-90-effect-50", []prim.AbOption{
			prim.WithAbortPolicy(register.ProbAbort(0.9, 12)),
			prim.WithEffectPolicy(register.ProbEffect(0.5, 13)),
		}},
		{"never-abort", []prim.AbOption{prim.WithAbortPolicy(prim.NeverAbort())}},
	}
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			const n = 3
			k := sim.New(n)
			sys, obs := buildSys(t, k, tc.opts...)
			for p := 0; p < n; p++ {
				sys.Instances[p].Candidate.Set(true)
			}
			runK(t, k, 400000)
			defer k.Shutdown()
			ell := obs.AgreedLeader([]int{0, 1, 2})
			if ell == omega.NoLeader {
				t.Fatalf("no common leader under %s: %v", tc.name, obs.Leaders())
			}
			if got := sys.Instances[ell].Leader.Get(); got != ell {
				t.Fatalf("leader %d outputs %d under %s", ell, got, tc.name)
			}
		})
	}
}

// A candidate that withdraws stops being anyone's leader.
func TestAbortableWithdrawalHandsOver(t *testing.T) {
	const n = 3
	k := sim.New(n)
	sys, obs := buildSys(t, k)
	for p := 0; p < n; p++ {
		sys.Instances[p].Candidate.Set(true)
	}
	runK(t, k, 300000)
	first := obs.AgreedLeader([]int{0, 1, 2})
	if first == omega.NoLeader {
		t.Fatal("no initial leader")
	}
	sys.Instances[first].Candidate.Set(false)
	runK(t, k, 1200000)
	defer k.Shutdown()

	if got := sys.Instances[first].Leader.Get(); got != omega.NoLeader {
		t.Errorf("withdrawn candidate outputs %d, want ?", got)
	}
	var survivors []int
	for p := 0; p < n; p++ {
		if p != first {
			survivors = append(survivors, p)
		}
	}
	second := obs.AgreedLeader(survivors)
	if second == omega.NoLeader || second == first {
		t.Fatalf("remaining candidates output %v after withdrawal", obs.Leaders())
	}
}
