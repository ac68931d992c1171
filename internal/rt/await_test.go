package rt

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tbwf/internal/prim"
)

// spawnWaiter runs a task on process p that awaits flag and then closes
// the returned channel.
func spawnWaiter(r *Runtime, p int, flag *prim.Var[bool]) chan struct{} {
	woke := make(chan struct{})
	r.Spawn(p, "waiter", func(pp prim.Proc) {
		flag.Await(pp, prim.IsTrue)
		close(woke)
	})
	return woke
}

// waitParked polls until process p reports want parked tasks.
func waitParked(t *testing.T, r *Runtime, p, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); r.ProcStats(p).Parked != want; {
		if time.Now().After(deadline) {
			t.Fatalf("process %d has %d parked tasks, want %d", p, r.ProcStats(p).Parked, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitGoroutines polls for the goroutine count to return to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// A task parked in Await takes no steps at all, and Set wakes it at once:
// the best of twenty hand-offs lands well inside a millisecond.
func TestAwaitParksWithoutStepsAndWakesOnSet(t *testing.T) {
	r := New(1, nil)
	defer r.Stop()
	best := time.Hour
	for i := 0; i < 20; i++ {
		flag := prim.NewVar(false)
		woke := spawnWaiter(r, 0, flag)
		waitParked(t, r, 0, 1)
		if i == 0 {
			before := r.StepOf(0)
			time.Sleep(50 * time.Millisecond)
			if got := r.StepOf(0) - before; got != 0 {
				t.Fatalf("parked task took %d steps in 50ms, want 0", got)
			}
			if st := r.ProcStats(0); !st.Idle {
				t.Fatalf("process with its only task parked reports %+v, want Idle", st)
			}
		}
		before := r.StepOf(0)
		t0 := time.Now()
		flag.Set(true)
		select {
		case <-woke:
		case <-time.After(5 * time.Second):
			t.Fatal("Set did not wake the parked task")
		}
		best = min(best, time.Since(t0))
		if got := r.StepOf(0) - before; got != 1 {
			t.Fatalf("wake-up took %d steps, want exactly 1", got)
		}
	}
	if best > time.Millisecond {
		t.Fatalf("fastest of 20 wake-ups took %v, want < 1ms", best)
	}
}

// Stop and Crash reach a task parked in Await exactly as they reach one
// parked in a gap: it exits now and its goroutine is gone.
func TestStopAndCrashInterruptAwait(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill func(r *Runtime)
	}{
		{"Stop", func(r *Runtime) {}},
		{"Crash", func(r *Runtime) { r.Crash(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r := New(1, nil)
			woke := spawnWaiter(r, 0, prim.NewVar(false))
			waitParked(t, r, 0, 1)
			tc.kill(r)
			done := make(chan error, 1)
			go func() { done <- r.Stop() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a task parked in Await did not exit")
			}
			select {
			case <-woke:
				t.Fatal("Await returned although the variable never became true")
			default:
			}
			waitGoroutines(t, before)
		})
	}
}

// A retune interrupts a parked task — it takes its one paced step under
// the new profile — but the wait goes on until the variable is set.
func TestAwaitSurvivesSetProfile(t *testing.T) {
	r := New(1, nil)
	defer r.Stop()
	flag := prim.NewVar(false)
	woke := spawnWaiter(r, 0, flag)
	waitParked(t, r, 0, 1)
	before := r.StepOf(0)
	r.SetProfile(0, Steady(10*time.Microsecond))
	for deadline := time.Now().Add(5 * time.Second); r.StepOf(0) == before; {
		if time.Now().After(deadline) {
			t.Fatal("retune did not reach the parked task")
		}
		time.Sleep(100 * time.Microsecond)
	}
	waitParked(t, r, 0, 1)
	select {
	case <-woke:
		t.Fatal("Await returned on a retune")
	default:
	}
	flag.Set(true)
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("Set did not wake the task after a retune")
	}
}

// Idleness is not a scheduling gap: a process whose tasks were all parked
// for 200ms reports no gap anywhere near that (the bound leaves room for
// the host preempting the test between two steps), while an injected 20ms
// pause still shows.
func TestGapTelemetryTellsIdleFromSlow(t *testing.T) {
	r := New(2, nil)
	defer r.Stop()

	// Process 0: steps, idles 200ms in Await, steps again.
	flag := prim.NewVar(false)
	done := make(chan struct{})
	r.Spawn(0, "idler", func(pp prim.Proc) {
		defer close(done)
		for i := 0; i < 100; i++ {
			pp.Step()
		}
		flag.Await(pp, prim.IsTrue)
		for i := 0; i < 100; i++ {
			pp.Step()
		}
	})
	waitParked(t, r, 0, 1)
	time.Sleep(200 * time.Millisecond)
	flag.Set(true)
	<-done
	if st := r.ProcStats(0); st.MaxGap >= 50*time.Millisecond {
		t.Errorf("process idle for 200ms reports MaxGap %v, want < 50ms", st.MaxGap)
	}

	// Process 1: one task parked in Await throughout, a sibling that draws
	// a 20ms pause. The process is never wholly parked, so the gap counts.
	never := prim.NewVar(false)
	spawnWaiter(r, 1, never)
	waitParked(t, r, 1, 1)
	r.SetProfile(1, GrowingGaps(50, 20*time.Millisecond, 1))
	slow := make(chan struct{})
	r.Spawn(1, "slow", func(pp prim.Proc) {
		defer close(slow)
		for i := 0; i < 120; i++ {
			pp.Step()
		}
	})
	<-slow
	if st := r.ProcStats(1); st.MaxGap < 20*time.Millisecond {
		t.Errorf("process with an injected 20ms pause reports MaxGap %v, want ≥ 20ms", st.MaxGap)
	}
}

// A pause served on the very last step before the process goes idle is
// still a gap: pace serves it after observing the step, so it is folded in
// when the task parks, not at a next step that may be a long idle away.
func TestGapOnLastStepBeforeParkCounts(t *testing.T) {
	const pauseAt, pause = 10, 20 * time.Millisecond
	r := New(1, func(step int64) time.Duration {
		if step == pauseAt {
			return pause
		}
		return 0
	})
	defer r.Stop()
	flag := prim.NewVar(false)
	r.Spawn(0, "pauser", func(pp prim.Proc) {
		for i := 0; i < pauseAt; i++ {
			pp.Step()
		}
		flag.Await(pp, prim.IsTrue)
	})
	waitParked(t, r, 0, 1)
	// Parked is raised an instant before the fold; give it that instant.
	for deadline := time.Now().Add(time.Second); r.ProcStats(0).MaxGap < pause; {
		if time.Now().After(deadline) {
			t.Fatalf("parked right after a %v pause on step %d: %+v, want MaxGap ≥ the pause", pause, pauseAt, r.ProcStats(0))
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(100 * time.Millisecond)
	flag.Set(true)
	for deadline := time.Now().Add(5 * time.Second); r.StepOf(0) == pauseAt; {
		if time.Now().After(deadline) {
			t.Fatal("Set did not wake the parked task")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if st := r.ProcStats(0); st.MaxGap >= pause+50*time.Millisecond {
		t.Errorf("the 100ms idle stretch after the park leaked into MaxGap: %+v", st)
	}
}

// stall fails the test if progress stops advancing for a whole second
// before done closes: the signature of a lost wake-up.
func stall(t *testing.T, what string, progress *atomic.Int64, done <-chan struct{}) {
	t.Helper()
	last := progress.Load()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			now := progress.Load()
			if now == last {
				t.Fatalf("%s stalled at %d for 1s: lost wake-up", what, now)
			}
			last = now
		}
	}
}

// TestAwaitHandoffStressRace raises a flag for a task parked in Await 10⁵
// times: the receiver lowers it and acknowledges, the sender raises it
// again the instant it sees the acknowledgement — it watches an atomic, so
// nothing delays it — which aims every Set at the window between Await's
// check and its park. Run under -race; a Set lost in that window leaves
// the receiver parked with its flag already up, the sender waits on it,
// and the watchdog fails the test.
func TestAwaitHandoffStressRace(t *testing.T) {
	const rounds = 100_000
	r := New(1, nil)
	defer r.Stop()
	flag := prim.NewVar(false)
	var acked atomic.Int64
	done := make(chan struct{})
	r.Spawn(0, "receiver", func(pp prim.Proc) {
		defer close(done)
		for n := int64(1); n <= rounds; n++ {
			flag.Await(pp, prim.IsTrue)
			flag.Set(false)
			acked.Store(n)
		}
	})
	r.Spawn(0, "sender", func(prim.Proc) {
		for n := int64(1); n <= rounds; n++ {
			flag.Set(true)
			for acked.Load() < n {
				select {
				case <-r.Stopping():
					return
				default:
					runtime.Gosched()
				}
			}
		}
	})
	stall(t, "Set/Await hand-off", &acked, done)
	// The receiver steps only when it leaves a park.
	t.Logf("%d hand-offs, %d parks", rounds, r.StepOf(0))
	if r.StepOf(0) == 0 {
		t.Error("the receiver never parked: the test exercised nothing")
	}
}
