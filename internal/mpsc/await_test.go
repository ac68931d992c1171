package mpsc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbwf/internal/prim"
	"tbwf/internal/rt"
)

// hookParker is a Parker whose Waker runs a hook first: Await calls Waker
// (once per queue) after it found the queue empty and before it raises
// sleeping, which is exactly where a concurrent Push can slip in unseen.
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
func (p *hookParker) Linger() time.Duration { return prim.LingerWindow }
func (p *hookParker) Park() {
	p.parks++
	select {
	case <-p.wake:
	case <-time.After(time.Second):
		p.t.Error("parked for 1s without a wake-up")
	}
}

// A Push that lands after the consumer saw the queue empty and before it
// raised sleeping wakes nobody; the consumer's re-check must find it.
func TestAwaitPushBetweenCheckAndPark(t *testing.T) {
	q := New[int](4)
	p := &hookParker{wake: make(chan struct{}, 1), t: t}
	p.hook = func() { q.Push(1) }
	q.Await(p)
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("Pop after Await = (%d, %v), want (1, true)", v, ok)
	}
	if p.parks != 0 {
		t.Fatalf("consumer parked %d times with an item already queued", p.parks)
	}
}

// On a Proc that cannot park, Await is the spin loop it replaced: one step
// per look at an empty queue, none once an item is there.
func TestAwaitSpinsWithoutParker(t *testing.T) {
	q := New[int](4)
	steps := 0
	spin := stepper{step: func() {
		if steps++; steps == 3 {
			q.Push(9)
		}
	}}
	q.Await(spin)
	if steps != 3 {
		t.Fatalf("Await took %d steps, want 3", steps)
	}
	q.Await(spin)
	if steps != 3 {
		t.Fatalf("Await on a non-empty queue took %d more steps", steps-3)
	}
}

type stepper struct{ step func() }

func (s stepper) ID() int { return 0 }
func (s stepper) Step()   { s.step() }

// TestAwaitParkStressRace moves 10⁵ items from 4 producers to one rt task
// that waits in Await whenever the queue is empty. Each producer waits for
// its item to be consumed before it pushes the next, and producer 0 aims
// every parkEvery-th item at the moment the consumer parks, which is just
// after it takes its last look at the queue. The consumer's countingParker
// publishes the moment it enters Park. Producer 0 waits for the consumer's
// next Await, pushes a lag after its start, jittered by up to ±2 µs in
// 100 ns steps, and then moves the lag 2 µs towards the park: earlier if
// the consumer parked before the Push, later if the Push came first. So
// the pushes straddle the park whatever a step costs; aiming at the end of
// the linger window instead misses under -race, where one step's Gosched
// can outlast the whole window. The other producers contend for the ring
// and are done early; after that nobody else's Push can paper over a
// wake-up producer 0 lost. Run under -race; a Push missed between the
// consumer's emptiness check and its park leaves it asleep with work
// queued, the producer waits on it, and the watchdog fails the test.
func TestAwaitParkStressRace(t *testing.T) {
	const producers, perProd, parkEvery = 4, 25_000, 50
	q := New[int](8)
	r := rt.New(1, nil)
	defer r.Stop()
	var consumed, parks, awaits, awaitAt, parkAt atomic.Int64
	acked := make([]atomic.Int64, producers)
	done := make(chan struct{})
	r.Spawn(0, "consumer", func(pp prim.Proc) {
		defer close(done)
		pp = countingParker{pp, pp.(prim.Parker), &parks, &parkAt}
		buf := make([]int, 4)
		for consumed.Load() < producers*perProd {
			n := q.PopBatch(buf)
			if n == 0 {
				awaitAt.Store(time.Now().UnixNano())
				awaits.Add(1)
				q.Await(pp)
				continue
			}
			for _, p := range buf[:n] {
				acked[p].Add(1)
			}
			consumed.Add(int64(n))
		}
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// spin yields until cond holds; false if the test gave up.
			spin := func(cond func() bool) bool {
				for !cond() {
					select {
					case <-stop:
						return false
					default:
						runtime.Gosched()
					}
				}
				return true
			}
			lag := int64(prim.LingerWindow)
			var mark, start int64 // awaits before the latest Push; the aimed Await's start
			for sent := int64(1); sent <= perProd; sent++ {
				aimed := p == 0 && sent%parkEvery == 0
				if aimed {
					if !spin(func() bool { return awaits.Load() > mark }) {
						return
					}
					start = awaitAt.Load()
					aim := start + lag + (sent/parkEvery%41-20)*100
					if !spin(func() bool { return time.Now().UnixNano() >= aim }) {
						return
					}
				}
				mark = awaits.Load()
				for !q.Push(p) {
					runtime.Gosched()
				}
				if !spin(func() bool { return acked[p].Load() >= sent }) {
					return
				}
				if aimed {
					if parkAt.Load() > start {
						lag -= 2000
					} else {
						lag += 2000
					}
				}
			}
		}()
	}
	// Release the producers whatever happens, then report.
	func() {
		defer wg.Wait()
		defer close(stop)
		last := int64(-1)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				now := consumed.Load()
				if now == last {
					t.Errorf("consumer stalled at %d of %d items for 1s: lost wake-up", now, producers*perProd)
					return
				}
				last = now
			}
		}
	}()
	t.Logf("%d items, %d parks", consumed.Load(), parks.Load())
	if parks.Load() < perProd/parkEvery/10 {
		t.Errorf("the consumer parked %d times in %d aimed pushes: the test exercised little", parks.Load(), perProd/parkEvery)
	}
}

// countingParker counts the parks of the task it wraps and publishes the
// moment (UnixNano) the latest one began.
type countingParker struct {
	prim.Proc
	prim.Parker
	parks, at *atomic.Int64
}

func (c countingParker) Park() {
	c.parks.Add(1)
	c.at.Store(time.Now().UnixNano())
	c.Parker.Park()
}
