package qa

import (
	"testing"

	"tbwf/internal/prim"
	"tbwf/internal/sim"
)

// A tiny maxScan forces Invoke to give up with ⊥ when the log outruns it;
// wait-freedom must survive (calls return), and the op's fate must still
// settle via Query.
func TestMaxScanExhaustionStillSettles(t *testing.T) {
	const n = 2
	k := sim.New(n)
	so, err := New[int64, int64, int64](counter{}, n, SimFactories[int64](k), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Process 0 fills the log with many ops; process 1 then tries one op
	// with maxScan=1 — its first Invoke may land behind several decided
	// slots and exhaust the budget.
	done0 := false
	k.Spawn(0, "filler", func(p prim.Proc) {
		h := so.Handle(0)
		for i := 0; i < 10; i++ {
			for {
				if _, ok := h.Invoke(1); ok {
					break
				}
				r, out := h.Query()
				_ = r
				if out == QueryApplied {
					break
				}
				p.Step()
			}
		}
		done0 = true
	})
	if _, err := k.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if !done0 {
		t.Fatal("filler did not finish")
	}
	var got int64 = -1
	k.Spawn(1, "late", func(p prim.Proc) {
		h := so.Handle(1)
		for {
			if r, ok := h.Invoke(1); ok {
				got = r
				return
			}
			for {
				r, out := h.Query()
				if out == QueryApplied {
					got = r
					return
				}
				if out == QueryNotApplied {
					break
				}
				p.Step()
			}
		}
	})
	if _, err := k.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if got != 10 {
		t.Fatalf("late op saw previous value %d, want 10", got)
	}
}

// Two independent objects on one kernel do not interfere.
func TestMultipleObjectsIndependent(t *testing.T) {
	k := sim.New(1)
	a, err := NewSim[int64, int64, int64](k, counter{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSim[int64, int64, int64](k, counter{})
	if err != nil {
		t.Fatal(err)
	}
	var ra, rb int64
	k.Spawn(0, "client", func(p prim.Proc) {
		ha, hb := a.Handle(0), b.Handle(0)
		for i := 0; i < 5; i++ {
			ra, _ = ha.Invoke(10)
		}
		for i := 0; i < 3; i++ {
			rb, _ = hb.Invoke(1)
		}
	})
	if _, err := k.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if ra != 40 || rb != 2 {
		t.Fatalf("last responses = %d, %d; want 40, 2", ra, rb)
	}
	if a.Slots() < 5 || b.Slots() < 3 {
		t.Fatalf("slot counts: %d, %d", a.Slots(), b.Slots())
	}
}

// SnapshotLog and Sync on a fresh object are empty and clean.
func TestEmptyObjectVerifiers(t *testing.T) {
	k := sim.New(1)
	so, err := NewSim[int64, int64, int64](k, counter{})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn(0, "verifier", func(p prim.Proc) {
		h := so.Handle(0)
		if s, ok := h.Sync(); !ok || s != 0 {
			t.Errorf("sync on empty object: %d, %v", s, ok)
		}
		if log, ok := h.SnapshotLog(); !ok || len(log) != 0 {
			t.Errorf("snapshot on empty object: %v, %v", log, ok)
		}
	})
	if _, err := k.Run(10_000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
}

// The Handle panics on out-of-range processes (a wiring bug).
func TestHandleRangePanics(t *testing.T) {
	k := sim.New(2)
	so, err := NewSim[int64, int64, int64](k, counter{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range handle did not panic")
		}
	}()
	so.Handle(7)
}

// Batch applies a batch's ops in order, one response per op, and is as
// persistent as the type it lifts: the input state is untouched.
func TestBatchFoldsInOrder(t *testing.T) {
	appendLog := TypeFuncs[[]int, int, int]{
		InitFn: func() []int { return nil },
		ApplyFn: func(s []int, op int) ([]int, int) {
			return append(append([]int(nil), s...), op), len(s)
		},
	}
	lifted := Batch[[]int, int, int](appendLog)
	s0 := append(lifted.Init(), 7)
	s1, resps := lifted.Apply(s0, []int{8, 9})
	if len(s0) != 1 || len(s1) != 3 || s1[1] != 8 || s1[2] != 9 {
		t.Fatalf("states %v -> %v", s0, s1)
	}
	if len(resps) != 2 || resps[0] != 1 || resps[1] != 2 {
		t.Fatalf("responses %v, want [1 2]", resps)
	}
	if _, none := lifted.Apply(s1, nil); len(none) != 0 {
		t.Fatalf("empty batch answered %v", none)
	}
}
