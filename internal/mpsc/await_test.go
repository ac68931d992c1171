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
// every parkEvery-th item at the instant the consumer's linger window runs
// out — a little before to a little after, in 100 ns steps — which is
// where the consumer takes its last look at the queue and parks. The other
// producers contend for the ring and are done early; after that nobody
// else's Push can paper over a wake-up producer 0 lost. Run under -race; a
// Push missed between the consumer's emptiness check and its park leaves
// it asleep with work queued, the producer waits on it, and the watchdog
// fails the test.
func TestAwaitParkStressRace(t *testing.T) {
	const producers, perProd, parkEvery = 4, 25_000, 50
	q := New[int](8)
	r := rt.New(1, nil)
	defer r.Stop()
	var consumed, parks, awaitAt atomic.Int64
	acked := make([]atomic.Int64, producers)
	done := make(chan struct{})
	r.Spawn(0, "consumer", func(pp prim.Proc) {
		defer close(done)
		pp = countingParker{pp, pp.(prim.Parker), &parks}
		buf := make([]int, 4)
		for consumed.Load() < producers*perProd {
			n := q.PopBatch(buf)
			if n == 0 {
				awaitAt.Store(time.Now().UnixNano())
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
			for sent := int64(1); sent <= perProd; sent++ {
				if p == 0 && sent%parkEvery == 0 {
					aim := int64(prim.LingerWindow) + (sent/parkEvery%41-20)*100
					for time.Now().UnixNano() < awaitAt.Load()+aim {
						runtime.Gosched()
					}
				}
				for !q.Push(p) {
					runtime.Gosched()
				}
				for acked[p].Load() < sent {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
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

// countingParker counts the parks of the task it wraps.
type countingParker struct {
	prim.Proc
	prim.Parker
	parks *atomic.Int64
}

func (c countingParker) Park() {
	c.parks.Add(1)
	c.Parker.Park()
}
