package register

import (
	"testing"

	"tbwf/internal/prim"
	"tbwf/internal/sim"
)

func TestAtomicReadWrite(t *testing.T) {
	k := sim.New(2)
	r := NewAtomic(k, "r", 0)
	got := make([]int, 0, 4)
	k.Spawn(0, "writer", func(p prim.Proc) {
		for i := 1; i <= 4; i++ {
			r.Write(i)
		}
	})
	k.Spawn(1, "reader", func(p prim.Proc) {
		for {
			got = append(got, r.Read())
			p.Step()
		}
	})
	if _, err := k.Run(200); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	// Reads must be monotone (writer only increases the value).
	prev := 0
	for _, v := range got {
		if v < prev {
			t.Fatalf("non-monotone reads: %v", got)
		}
		prev = v
	}
	if r.Peek() != 4 {
		t.Fatalf("final value = %d, want 4", r.Peek())
	}
	if s := r.Stats(); s.Writes != 4 {
		t.Fatalf("write count = %d, want 4", s.Writes)
	}
}

func TestAtomicOpCostsTwoSteps(t *testing.T) {
	k := sim.New(1)
	r := NewAtomic(k, "r", 0)
	ops := 0
	k.Spawn(0, "w", func(p prim.Proc) {
		for {
			r.Write(ops)
			ops++
		}
	})
	if _, err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	// 2 steps per op in steady state, with a 1-step pipeline fill at the
	// first activation.
	if ops < 49 || ops > 50 {
		t.Fatalf("completed %d ops in 100 steps, want about 50 (2 steps/op)", ops)
	}
}

func TestAbortableSoloOpsNeverAbort(t *testing.T) {
	k := sim.New(2)
	r := NewAbortable(k, "r", 0)
	okWrites, okReads := 0, 0
	k.Spawn(0, "w", func(p prim.Proc) {
		for i := 0; i < 10; i++ {
			if r.Write(i) {
				okWrites++
			}
			// Idle long enough that ops never overlap the reader's.
			for j := 0; j < 10; j++ {
				p.Step()
			}
		}
	})
	// A different idle period makes the two processes' operation phases
	// drift, so some operations run without overlap and must succeed.
	k.Spawn(1, "r", func(p prim.Proc) {
		for {
			if _, ok := r.Read(); ok {
				okReads++
			}
			for j := 0; j < 17; j++ {
				p.Step()
			}
		}
	})
	if _, err := k.Run(400); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if okWrites == 0 || okReads == 0 {
		t.Fatalf("okWrites=%d okReads=%d; with sparse ops some must succeed", okWrites, okReads)
	}
}

func TestAbortableContendedOpsAbort(t *testing.T) {
	k := sim.New(2)
	r := NewAbortable(k, "r", 0) // AlwaysAbort default
	writeAborts, readAborts := 0, 0
	k.Spawn(0, "w", func(p prim.Proc) {
		for i := 0; ; i++ {
			if !r.Write(i) {
				writeAborts++
			}
		}
	})
	k.Spawn(1, "r", func(p prim.Proc) {
		for {
			if _, ok := r.Read(); !ok {
				readAborts++
			}
		}
	})
	if _, err := k.Run(400); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	// Back-to-back ops under round-robin always overlap: everything aborts.
	if writeAborts == 0 || readAborts == 0 {
		t.Fatalf("writeAborts=%d readAborts=%d; contended ops must abort", writeAborts, readAborts)
	}
	if r.Peek() != 0 {
		t.Fatalf("aborted writes took effect: value = %d, want 0 (NoEffect policy)", r.Peek())
	}
}

func TestAbortableEffectPolicy(t *testing.T) {
	k := sim.New(2)
	r := NewAbortable(k, "r", 0, prim.WithEffectPolicy(prim.AlwaysEffect()))
	k.Spawn(0, "w", func(p prim.Proc) {
		for i := 1; ; i++ {
			r.Write(i)
		}
	})
	k.Spawn(1, "r", func(p prim.Proc) {
		for {
			r.Read()
		}
	})
	if _, err := k.Run(200); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if r.Peek() == 0 {
		t.Fatal("with AlwaysEffect, aborted writes must take effect")
	}
}

func TestAbortableNeverAbortBehavesAtomically(t *testing.T) {
	k := sim.New(2)
	r := NewAbortable(k, "r", 0, prim.WithAbortPolicy(prim.NeverAbort()))
	fails := 0
	k.Spawn(0, "w", func(p prim.Proc) {
		for i := 1; ; i++ {
			if !r.Write(i) {
				fails++
			}
		}
	})
	k.Spawn(1, "r", func(p prim.Proc) {
		for {
			if _, ok := r.Read(); !ok {
				fails++
			}
		}
	})
	if _, err := k.Run(200); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if fails != 0 {
		t.Fatalf("NeverAbort register aborted %d ops", fails)
	}
}

func TestAbortableSWSREnforcesRoles(t *testing.T) {
	k := sim.New(2)
	r := NewAbortableSWSR(k, "r", 0, 0, 1)
	k.Spawn(1, "bad-writer", func(p prim.Proc) {
		r.Write(1) // process 1 is the reader; this must panic
	})
	_, err := k.Run(10)
	k.Shutdown()
	if err == nil {
		t.Fatal("expected wiring-violation panic to surface as a run error")
	}
}

func TestAbortableCrashMidOpStopsInterfering(t *testing.T) {
	k := sim.New(2)
	r := NewAbortable(k, "r", 0)
	k.Spawn(0, "w", func(p prim.Proc) {
		for i := 1; ; i++ {
			r.Write(i)
		}
	})
	k.CrashAt(0, 3) // crash mid-operation
	succ := 0
	k.Spawn(1, "r", func(p prim.Proc) {
		for {
			if _, ok := r.Read(); ok {
				succ++
			}
		}
	})
	if _, err := k.Run(200); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if succ == 0 {
		t.Fatal("reads must succeed once the crashed writer stops interfering")
	}
}
