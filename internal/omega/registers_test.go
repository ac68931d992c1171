package omega

import (
	"testing"

	"tbwf/internal/prim"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

// buildSys wires the Figure 2+3 stack on a kernel and attaches an observer.
func buildSys(t *testing.T, k *sim.Kernel) (*Deployment, *Observer) {
	t.Helper()
	sys, err := BuildWith(k.N(), k, func(name string, init int64) prim.Register[int64] {
		return register.NewAtomic(k, name, init)
	}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(sys.Instances)
	k.AfterStep(obs.Sample)
	return sys, obs
}

func runK(t *testing.T, k *sim.Kernel, steps int64) {
	t.Helper()
	if _, err := k.Run(steps); err != nil {
		t.Fatal(err)
	}
}

// All processes are timely permanent candidates: a unique, stable, common
// leader must emerge, and it must output itself as leader (Definition 5.1a/b
// with everyone in Pcandidates ∩ Timely).
func TestAllTimelyPermanentCandidatesElectStableLeader(t *testing.T) {
	const n = 4
	k := sim.New(n)
	sys, obs := buildSys(t, k)
	for p := 0; p < n; p++ {
		sys.Instances[p].Candidate.Set(true)
	}
	runK(t, k, 150000)
	defer k.Shutdown()

	all := []int{0, 1, 2, 3}
	ell := obs.AgreedLeader(all)
	if ell == NoLeader {
		t.Fatalf("no common leader after 150k steps: %v", obs.Leaders())
	}
	if got := sys.Instances[ell].Leader.Get(); got != ell {
		t.Fatalf("leader %d outputs %d, want itself", ell, got)
	}
	// Stability: the leader vector must have stopped changing well before
	// the end.
	if obs.StabilizedAt() > 120000 {
		t.Fatalf("leader vector still changing at step %d", obs.StabilizedAt())
	}
}

// A non-candidate must eventually output "?" (Definition 5.2), and must
// never become leader.
func TestNonCandidateOutputsUnknown(t *testing.T) {
	const n = 3
	k := sim.New(n)
	sys, obs := buildSys(t, k)
	sys.Instances[0].Candidate.Set(true)
	sys.Instances[1].Candidate.Set(true)
	// Process 2 never competes.
	runK(t, k, 100000)
	defer k.Shutdown()

	if got := sys.Instances[2].Leader.Get(); got != NoLeader {
		t.Fatalf("non-candidate outputs leader %d, want ?", got)
	}
	ell := obs.AgreedLeader([]int{0, 1})
	if ell != 0 && ell != 1 {
		t.Fatalf("candidates agreed on %d, want one of the candidates", ell)
	}
}

// When the current leader crashes, the surviving candidates must elect a
// new (timely) leader.
func TestLeaderCrashTriggersReelection(t *testing.T) {
	const n = 3
	k := sim.New(n)
	sys, obs := buildSys(t, k)
	for p := 0; p < n; p++ {
		sys.Instances[p].Candidate.Set(true)
	}
	runK(t, k, 100000)
	first := obs.AgreedLeader([]int{0, 1, 2})
	if first == NoLeader {
		t.Fatalf("no leader before crash: %v", obs.Leaders())
	}
	k.Crash(first)
	runK(t, k, 400000) // adaptive timeouts may have grown; give time
	defer k.Shutdown()

	survivors := make([]int, 0, 2)
	for p := 0; p < n; p++ {
		if p != first {
			survivors = append(survivors, p)
		}
	}
	second := obs.AgreedLeader(survivors)
	if second == NoLeader || second == first {
		t.Fatalf("after leader %d crashed, survivors output %v; want agreement on a survivor",
			first, obs.Leaders())
	}
}

// The heart of Ω∆ (Definition 5.1): with one timely permanent candidate and
// the other candidates untimely, the timely one must be elected — by every
// permanent candidate, including the untimely ones.
func TestTimelyCandidateWinsOverUntimelyOnes(t *testing.T) {
	const n = 4
	// Process 3 is the only timely candidate; 0 and 1 have geometrically
	// growing gaps (correct but untimely); 2 is timely but never competes.
	// Giving the untimely ones the *smallest* ids makes this the hard
	// case: the (counter, id) rule prefers them until punishments
	// accumulate.
	k := sim.New(n, sim.WithSchedule(sim.Restrict(sim.RoundRobin(), map[int]sim.Availability{
		0: sim.GrowingGaps(200, 400, 1.6),
		1: sim.GrowingGaps(200, 600, 1.6),
	})))
	sys, obs := buildSys(t, k)
	sys.Instances[0].Candidate.Set(true)
	sys.Instances[1].Candidate.Set(true)
	sys.Instances[3].Candidate.Set(true)

	runK(t, k, 1500000)
	defer k.Shutdown()

	// The timely permanent candidate 3 must consider itself leader.
	if got := sys.Instances[3].Leader.Get(); got != 3 {
		t.Fatalf("timely candidate outputs leader %d, want itself; leaders=%v counters=%v",
			got, obs.Leaders(), counterValues(sys))
	}
	// Untimely candidates' outputs are sampled at the end of the run;
	// they must have converged to 3 as well (they are Pcandidates).
	for _, p := range []int{0, 1} {
		if got := sys.Instances[p].Leader.Get(); got != 3 {
			t.Errorf("untimely candidate %d outputs leader %d, want 3", p, got)
		}
	}
	// And the non-candidate still outputs ?.
	if got := sys.Instances[2].Leader.Get(); got != NoLeader {
		t.Errorf("non-candidate outputs %d, want ?", got)
	}
}

func counterValues(sys *Deployment) []int64 {
	out := make([]int64, sys.N)
	for q := range out {
		out[q] = sys.CounterReg[q].(*register.Atomic[int64]).Peek()
	}
	return out
}

// Write-efficiency (Section 5.2, closing remark): once a sole timely
// permanent candidate stabilizes as leader, the only process writing shared
// registers is the leader itself.
func TestWriteEfficiencyAfterStabilization(t *testing.T) {
	const n = 3
	k := sim.New(n, sim.WithWriteLog(true))
	sys, obs := buildSys(t, k)
	for p := 0; p < n; p++ {
		sys.Instances[p].Candidate.Set(true)
	}
	runK(t, k, 200000)
	defer k.Shutdown()

	ell := obs.AgreedLeader([]int{0, 1, 2})
	if ell == NoLeader {
		t.Fatalf("no stable leader: %v", obs.Leaders())
	}
	stable := obs.StabilizedAt()
	// Give the system a settling margin after the last leader change, then
	// require that only the leader writes.
	margin := stable + 20000
	writers := map[int]int64{}
	for _, ev := range k.Trace().Writes() {
		if ev.Step >= margin {
			writers[ev.Proc]++
		}
	}
	for proc, cnt := range writers {
		if proc != ell {
			t.Errorf("process %d wrote %d times after stabilization (leader is %d)", proc, cnt, ell)
		}
	}
	if writers[ell] == 0 {
		t.Error("leader stopped heartbeating after stabilization")
	}
}

// A candidate that withdraws must stop being leader at the others.
func TestLeaderWithdrawalHandsOverLeadership(t *testing.T) {
	const n = 3
	k := sim.New(n)
	sys, obs := buildSys(t, k)
	for p := 0; p < n; p++ {
		sys.Instances[p].Candidate.Set(true)
	}
	runK(t, k, 100000)
	first := obs.AgreedLeader([]int{0, 1, 2})
	if first == NoLeader {
		t.Fatal("no initial leader")
	}
	sys.Instances[first].Candidate.Set(false)
	runK(t, k, 400000)
	defer k.Shutdown()

	if got := sys.Instances[first].Leader.Get(); got != NoLeader {
		t.Errorf("withdrawn candidate outputs %d, want ?", got)
	}
	survivors := make([]int, 0, 2)
	for p := 0; p < n; p++ {
		if p != first {
			survivors = append(survivors, p)
		}
	}
	second := obs.AgreedLeader(survivors)
	if second == NoLeader || second == first {
		t.Fatalf("remaining candidates output %v after leader withdrew", obs.Leaders())
	}
}

func TestRegistersTaskRejectsBadWiring(t *testing.T) {
	if _, err := RegistersTask(RegistersConfig{N: 1, Me: 0}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := RegistersTask(RegistersConfig{N: 3, Me: 5}); err == nil {
		t.Error("out-of-range me accepted")
	}
	if _, err := RegistersTask(RegistersConfig{N: 3, Me: 0, Endpoint: NewInstance(0)}); err == nil {
		t.Error("missing slices accepted")
	}
}
