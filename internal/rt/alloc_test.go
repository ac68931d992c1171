package rt_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbwf/internal/deploy"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/rt"
)

// TestInvokePathZeroAlloc pins the headline property of the zero-alloc
// campaign: once pools are warm and the QA slot window has reached steady
// state, a direct Stack invocation on the rt substrate allocates no heap
// objects amortized — not in the client, not in the QA log (slots recycle
// through the store's free list), not in the typed rt registers, and not
// in the Ω∆ elector tasks running alongside. testing.AllocsPerRun
// measures process-global mallocs, so the elector's steady-state churn
// and the second client running concurrently are included in the budget,
// making this an end-to-end claim about the whole stack.
//
// The second client must keep invoking during the measurement: slot
// recycling is bounded by the laggiest handle's replay position, so an
// idle process would pin the reclaim floor and every measured op would
// construct a fresh slot of registers.
func TestInvokePathZeroAlloc(t *testing.T) {
	var got float64
	st := onWarmInvokePath(t, func(invoke func()) {
		got = testing.AllocsPerRun(1500, invoke)
	})
	t.Logf("steady-state allocs/op = %v (slots materialized=%d, freshly constructed=%d)",
		got, st.Object.Slots(), st.Object.SlotsAllocated())
	// Amortized zero: allow the stray allocation a GC cycle or a rare
	// elector transition may cost across the 1500 measured ops.
	if got > 0.05 {
		t.Fatalf("steady-state invoke path allocates %.3f objects/op, want amortized 0", got)
	}
}

// onWarmInvokePath builds a two-process counter stack on rt, keeps process
// 1 invoking as the peer, and runs body as a task of process 0 with an
// invoke function for its client, after a 400-op warm-up that fills the
// timer, slot and pending pools, settles the elector and lets the slot
// store discover it can recycle. It returns the stack once body is done
// and the runtime has stopped.
func onWarmInvokePath(tb testing.TB, body func(invoke func())) *deploy.Stack[int64, objtype.CounterOp, int64] {
	r := rt.New(2, nil)
	st, err := deploy.Build[int64, objtype.CounterOp, int64](r, objtype.Counter{}, deploy.BuildConfig{})
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	var stop atomic.Bool
	r.Spawn(1, "peer", func(pp prim.Proc) {
		for !stop.Load() {
			st.Clients[1].Invoke(pp, objtype.CounterOp{Delta: 1})
		}
	})
	done := make(chan struct{})
	r.Spawn(0, "client", func(pp prim.Proc) {
		defer close(done)
		invoke := func() { st.Clients[0].Invoke(pp, objtype.CounterOp{Delta: 1}) }
		for i := 0; i < 400; i++ {
			invoke()
		}
		body(invoke)
	})
	<-done
	stop.Store(true)
	if err := r.Stop(); err != nil {
		tb.Fatalf("Stop: %v", err)
	}
	return st
}

// TestAwaitHandoffZeroAlloc: the event wait every leader change and every
// queued request rides on must not allocate, on either of its paths. Back
// to back a trip takes about a microsecond, so the peer's next wait starts
// far inside prim.LingerWindow (250 µs), where it is still stepping; the
// test logs the slowest trip to show it. A driver that first lets the
// peer's window run out finds it enlisted and parked, and Await must have
// reused the Var's retained waiter slice and the task's own wake channel
// to get there.
func TestAwaitHandoffZeroAlloc(t *testing.T) {
	onHandoff(t, func(r *rt.Runtime, roundTrip func()) {
		var slowest time.Duration
		avg := testing.AllocsPerRun(1000, func() {
			t0 := time.Now()
			roundTrip()
			slowest = max(slowest, time.Since(t0))
		})
		t.Logf("slowest lingering round trip %v (window %v)", slowest, prim.LingerWindow)
		if avg != 0 {
			t.Errorf("a Set/Await round trip allocates %.0f objects, want 0", avg)
		}
		avg = testing.AllocsPerRun(20, func() {
			for r.ProcStats(0).Parked == 0 {
				time.Sleep(time.Millisecond)
			}
			roundTrip()
		})
		if avg != 0 {
			t.Errorf("a round trip that wakes a parked peer allocates %.0f objects, want 0", avg)
		}
	})
}

// onHandoff runs body as a task of a one-process runtime beside a peer
// task, with a function that makes one there-and-back: each task raises a
// flag for the other and waits in Await for the other's Set.
func onHandoff(tb testing.TB, body func(r *rt.Runtime, roundTrip func())) {
	r := rt.New(1, nil)
	ping, pong := prim.NewVar(false), prim.NewVar(false)
	r.Spawn(0, "pong", func(pp prim.Proc) {
		for {
			ping.Await(pp, prim.IsTrue)
			ping.Set(false)
			pong.Set(true)
		}
	})
	done := make(chan struct{})
	r.Spawn(0, "ping", func(pp prim.Proc) {
		defer close(done)
		body(r, func() {
			ping.Set(true)
			pong.Await(pp, prim.IsTrue)
			pong.Set(false)
		})
	})
	<-done
	if err := r.Stop(); err != nil {
		tb.Fatalf("Stop: %v", err)
	}
}

// TestInvokePathRecyclingSoakRace hammers one stack from every process
// concurrently (run it with -race) and then checks that the QA slot store
// recycled: the slots freshly constructed must stay well below the log
// length. Without recycling every decided operation permanently retains a
// slot of 2n+1 registers and the two counts grow together.
func TestInvokePathRecyclingSoakRace(t *testing.T) {
	const n, opsPer = 3, 200
	r := rt.New(n, nil)
	st, err := deploy.Build[int64, objtype.CounterOp, int64](r, objtype.Counter{}, deploy.BuildConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		r.Spawn(p, fmt.Sprintf("client[%d]", p), func(pp prim.Proc) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				st.Clients[p].Invoke(pp, objtype.CounterOp{Delta: 1})
			}
		})
	}
	wg.Wait()
	var total int64
	for p := 0; p < n; p++ {
		total += st.Clients[p].Completed()
	}
	if total != n*opsPer {
		t.Fatalf("completed %d ops, want %d", total, n*opsPer)
	}
	slots, fresh := st.Object.Slots(), st.Object.SlotsAllocated()
	if err := r.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	t.Logf("ops = %d, log length = %d, slots freshly constructed = %d", total, slots, fresh)
	if slots < total {
		t.Fatalf("log length %d below completed ops %d", slots, total)
	}
	if fresh >= slots/2 {
		t.Fatalf("%d of %d slots freshly constructed — recycling is not happening", fresh, slots)
	}
}
