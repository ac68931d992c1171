package rt_test

import (
	"sync/atomic"
	"testing"
	"time"

	"tbwf/internal/deploy"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/rt"
)

func TestAtomicRegisterConcurrent(t *testing.T) {
	r := rt.New(4, nil)
	reg := prim.NewRegister(r, "", int64(0))
	var reads atomic.Int64
	for p := 0; p < 4; p++ {
		p := p
		r.Spawn(p, "w", func(pp prim.Proc) {
			for i := 0; i < 1000; i++ {
				reg.Write(int64(p))
				reg.Read()
				reads.Add(1)
				pp.Step()
			}
		})
	}
	time.Sleep(50 * time.Millisecond)
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if reads.Load() == 0 {
		t.Fatal("no reads happened")
	}
}

func TestAbortableRegisterSoloSucceeds(t *testing.T) {
	r := rt.New(1, nil)
	reg := prim.NewAbortable(r, "", int64(0))
	fails := 0
	done := make(chan struct{})
	r.Spawn(0, "w", func(p prim.Proc) {
		defer close(done)
		for i := int64(1); i <= 100; i++ {
			if !reg.Write(i) {
				fails++
			}
			p.Step()
		}
	})
	<-done
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if fails != 0 {
		t.Fatalf("%d solo writes aborted", fails)
	}
	if v, ok := reg.Read(); !ok || v != 100 {
		t.Fatalf("final read = (%d,%v), want (100,true)", v, ok)
	}
}

func TestCrashStopsTasks(t *testing.T) {
	r := rt.New(2, nil)
	var steps0, steps1 atomic.Int64
	spin := func(ctr *atomic.Int64) func(prim.Proc) {
		return func(p prim.Proc) {
			for {
				ctr.Add(1)
				p.Step()
			}
		}
	}
	r.Spawn(0, "spin", spin(&steps0))
	r.Spawn(1, "spin", spin(&steps1))
	time.Sleep(10 * time.Millisecond)
	r.Crash(0)
	time.Sleep(10 * time.Millisecond)
	at := steps0.Load()
	time.Sleep(20 * time.Millisecond)
	if got := steps0.Load(); got != at {
		t.Fatalf("crashed process kept stepping: %d -> %d", at, got)
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if steps1.Load() <= steps0.Load() {
		t.Fatal("surviving process did not outrun the crashed one")
	}
}

// The full TBWF stack on real goroutines: all-timely processes complete
// their counter operations and the responses are distinct.
func TestTBWFStackLive(t *testing.T) {
	const n, opsEach = 3, 5
	r := rt.New(n, rt.Steady(0))
	st, err := deploy.Build[int64, objtype.CounterOp, int64](r, objtype.Counter{}, deploy.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resps := make([][]int64, n)
	dones := make([]chan struct{}, n)
	for p := 0; p < n; p++ {
		p := p
		dones[p] = make(chan struct{})
		r.Spawn(p, "client", func(pp prim.Proc) {
			defer close(dones[p])
			for i := 0; i < opsEach; i++ {
				resps[p] = append(resps[p], st.Clients[p].Invoke(pp, objtype.CounterOp{Delta: 1}))
			}
		})
	}
	deadline := time.After(30 * time.Second)
	for p := 0; p < n; p++ {
		select {
		case <-dones[p]:
		case <-deadline:
			t.Fatalf("client %d did not finish in time (completed %d ops)", p, st.Clients[p].Completed())
		}
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for p := 0; p < n; p++ {
		if len(resps[p]) != opsEach {
			t.Fatalf("client %d finished %d/%d ops", p, len(resps[p]), opsEach)
		}
		for _, v := range resps[p] {
			if seen[v] {
				t.Fatalf("duplicate fetch-and-add response %d", v)
			}
			seen[v] = true
		}
	}
}
