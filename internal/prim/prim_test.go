package prim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVarZeroValueReady(t *testing.T) {
	var v Var[int]
	if v.Get() != 0 {
		t.Fatal("zero Var should hold the zero value")
	}
	v.Set(42)
	if v.Get() != 42 {
		t.Fatal("Set/Get round trip failed")
	}
}

func TestNewVarInitialValue(t *testing.T) {
	v := NewVar("hello")
	if v.Get() != "hello" {
		t.Fatalf("got %q", v.Get())
	}
}

func TestVarSlice(t *testing.T) {
	s := VarSlice(4, int64(7))
	if len(s) != 4 {
		t.Fatalf("len = %d", len(s))
	}
	for i, v := range s {
		if v.Get() != 7 {
			t.Fatalf("slot %d = %d", i, v.Get())
		}
	}
	s[0].Set(1)
	if s[1].Get() != 7 {
		t.Fatal("VarSlice slots alias each other")
	}
}

func TestVarConcurrentAccess(t *testing.T) {
	v := NewVar(int64(0))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.Set(v.Get() + 0) // reads+writes interleave; race detector is the assertion
			}
		}()
	}
	wg.Wait()
}

func TestVarRoundTripProperty(t *testing.T) {
	v := NewVar(0)
	f := func(x int) bool {
		v.Set(x)
		return v.Get() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExitTaskSentinel(t *testing.T) {
	caught := false
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("ExitTask did not panic")
			}
			if !RecoverTaskExit(r) {
				t.Fatalf("sentinel not recognized: %v", r)
			}
			caught = true
		}()
		ExitTask("test")
	}()
	if !caught {
		t.Fatal("sentinel never recovered")
	}
	if RecoverTaskExit("some other panic") {
		t.Fatal("foreign panic value misidentified as task exit")
	}
	if RecoverTaskExit(nil) {
		t.Fatal("nil misidentified as task exit")
	}
}

// hookParker is a Parker whose Waker runs a hook first: Await calls Waker
// after its unlocked check of the predicate and before it takes the lock
// to enlist, which is exactly where a concurrent Set can slip in.
type hookParker struct {
	hook  func()
	wake  chan struct{}
	parks int
	t     *testing.T
}

func (p *hookParker) ID() int { return 0 }
func (p *hookParker) Step()   {}
func (p *hookParker) Waker() chan<- struct{} {
	p.hook()
	return p.wake
}
func (p *hookParker) Linger() time.Duration { return LingerWindow }
func (p *hookParker) Park() {
	p.parks++
	select {
	case <-p.wake:
	case <-time.After(time.Second):
		p.t.Error("parked for 1s without a wake-up")
	}
}

// A Set that lands between Await's check and its park must not be lost:
// Await re-checks under the lock and does not park at all.
func TestAwaitSetBetweenCheckAndPark(t *testing.T) {
	x := NewVar(false)
	p := &hookParker{wake: make(chan struct{}, 1), t: t}
	p.hook = func() { x.Set(true) }
	if !x.Await(p, IsTrue) {
		t.Fatal("Await returned a value that fails its predicate")
	}
	if p.parks != 0 {
		t.Fatalf("Await parked %d times although the variable was already set", p.parks)
	}
}

// Set wakes every parked waiter, a waiter interrupted without a Set parks
// again without enlisting twice, and a Proc that cannot park spins.
func TestAwaitWakesAndSpins(t *testing.T) {
	x := NewVar(0)
	p := &hookParker{wake: make(chan struct{}, 1), t: t, hook: func() {}}
	got := make(chan int)
	go func() { got <- x.Await(p, func(v int) bool { return v >= 2 }) }()
	p.wake <- struct{}{} // an interrupt, not a Set: the wait goes on
	x.Set(1)             // a Set that does not satisfy: no wake-up at all
	x.Set(2)
	select {
	case v := <-got:
		if v != 2 {
			t.Fatalf("Await returned %d, want 2", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Set did not wake the waiter")
	}
	x.mu.Lock()
	left := len(x.waiters)
	x.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d waiters still enlisted after the wait ended", left)
	}

	steps := 0
	spin := stepper{step: func() {
		if steps++; steps == 3 {
			x.Set(7)
		}
	}}
	if v := x.Await(spin, func(v int) bool { return v == 7 }); v != 7 || steps != 3 {
		t.Fatalf("spinning Await returned %d after %d steps, want 7 after 3", v, steps)
	}
}

// exitParker is a Parker whose Park unwinds the task, as rt's does on Stop
// and Crash.
type exitParker struct{ hookParker }

func (p *exitParker) Park() { ExitTask("stopped while parked") }

// A task unwound while parked leaves the waiter list, so later Sets keep
// their no-waiter fast path and never run a dead task's predicate.
func TestAwaitDelistsOnUnwind(t *testing.T) {
	x := NewVar(false)
	p := &exitParker{hookParker{wake: make(chan struct{}, 1), hook: func() {}}}
	func() {
		defer func() {
			if !RecoverTaskExit(recover()) {
				t.Error("Await returned although Park unwound the task")
			}
		}()
		x.Await(p, IsTrue)
	}()
	if len(x.waiters) != 0 {
		t.Fatalf("%d waiters still enlisted after the task unwound", len(x.waiters))
	}
}

// stepper is a Proc without the Parker capability.
type stepper struct{ step func() }

func (s stepper) ID() int { return 0 }
func (s stepper) Step()   { s.step() }
