package prim

import (
	"sync"
	"time"
)

// Var is a local variable shared between the tasks of a single process.
//
// The paper's algorithms communicate between a process's concurrent
// activities through local variables: Ω∆ reads the input variable candidate_p
// and writes the output variable leader_p, the activity monitor A(p,q) reads
// monitoring_p[q] and writes status_p[q] and faultCntr_p[q] (Figure 1).
// These are process-local — they are never shared across processes — but on
// the real-time substrate the tasks of one process are separate goroutines,
// so access must still be synchronized.
//
// The zero value of Var[T] is ready to use and holds the zero value of T.
type Var[T any] struct {
	mu sync.RWMutex
	v  T
	// waiters holds the tasks parked in Await. It is almost always empty
	// (Set then pays one length load) and keeps its capacity across waits,
	// so waiting allocates nothing once warm.
	waiters []waiter[T]
}

// waiter is one task parked in Await: its wake channel and what it waits
// for.
type waiter[T any] struct {
	wake chan<- struct{}
	ok   func(T) bool
}

// Parker is an optional capability of a Proc whose substrate can block a
// task without charging it steps (the real-time runtime). Await uses it
// when present; a Proc without it (the simulation kernel) spins.
type Parker interface {
	// Waker returns the task's wake-up channel: capacity 1, owned by the
	// task for its whole life. A non-blocking send on it is a hint that
	// whatever the task waits for may have changed.
	Waker() chan<- struct{}
	// Park blocks the calling task, taking no steps, until a hint arrives
	// or the substrate interrupts it (stop, crash, pacing retune), and
	// then takes one Step — so a wake-up is paced, and unwinds the task,
	// exactly like any other step. It may return without a hint: callers
	// re-check their condition.
	Park()
	// Linger is how long the task keeps stepping on an unsatisfied wait
	// before it parks: LingerWindow on the real-time runtime, zero for a
	// task of the net substrate hosted there (see LingerWindow).
	Linger() time.Duration
}

// IsTrue is the Await predicate of the paper's "while x = false do skip".
func IsTrue(b bool) bool { return b }

// NewVar returns a Var initialized to v.
func NewVar[T any](v T) *Var[T] {
	return &Var[T]{v: v}
}

// Get returns the current value.
func (x *Var[T]) Get() T {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.v
}

// Set replaces the current value and wakes every task parked in Await
// whose predicate the new value satisfies.
func (x *Var[T]) Set(v T) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.v = v
	if len(x.waiters) == 0 {
		return
	}
	still := x.waiters[:0]
	for _, w := range x.waiters {
		if !w.ok(v) {
			still = append(still, w)
			continue
		}
		select {
		case w.wake <- struct{}{}:
		default: // a hint is already pending
		}
	}
	clear(x.waiters[len(still):])
	x.waiters = still
}

// LingerWindow is how long a task that can park keeps stepping on an
// unsatisfied wait (Var.Await, mpsc.Queue.Await) before it does. Within
// the window a wait is the spin loop it always was, so a process under
// sustained load never parks and behaves — and measures — exactly as it
// did before event waits; a process left alone for longer than the window
// goes quiet. 5 ms is longer than a kv-direct burst period (4 ms) and
// leaves http-slow1's 6.7 ms arrival gap a millisecond of idleness, so the
// first never parks under load and the second is always parked when a
// request arrives.
//
// Measured with bench/run.sh on 2 cores: median, and in brackets the
// spread of the middle half of six to ten runs (the benchmark refuses a
// change whose spread exceeds a quarter of the parent's median: 94 ops/s
// on http-slow1 ops_s, 2.3 ms on kv-direct p99_us; parent: p50 6 579 µs,
// 378 ops/s [27], p99 9.3 ms). The 2 and 3 ms rows are single runs.
//
//	window                    http-slow1 p50_us   ops_s         kv-direct p99_us
//	none (workers 300 µs)     1 080               3 630 [200]   5.4 ms [3.3 ms]
//	2 ms                      1 358               1 349
//	3 ms                      1 394               1 181
//	4 ms                      1 517 [64]          948 [62]      9.6 ms [0.5 ms]
//	5 ms                      1 577 [130]         791 [25]      10.3 ms [0.3 ms]
//
// Parking at once is faster under load but not steady: on an otherwise
// parked runtime a closed loop's rate follows which of two hand-off
// regimes the timely replicas have fallen into (1.3 or 6 QA invocations
// an operation), and one ballot catch-up stall of 20–80 ms decides a run's
// p99 (DESIGN.md §15). A closed loop's spread is about 7 % of its rate at
// any window, the parent's included, so the window also has to hold the
// rate where 7 % of it fits the bound. The window is wall-clock: a step
// count never runs out among ~80 runnable tasks.
//
// The window is the runtime's, not every Parker's (Parker.Linger). A task
// of the net substrate parks at once: there a wait is followed by quorum
// rounds over sockets, a lingering task's Gosched keeps every P busy so
// the sockets are polled by sysmon alone, and over loopback TCP the
// window costs half the throughput: 74.8 against 148.6 ops/s over ten
// seeds (DESIGN.md §15, EXPERIMENTS.md NET-TCP).
const LingerWindow = 5 * time.Millisecond

// Await is the paper's "while ¬ok(x) do skip": it returns the first value
// of x it observes that satisfies ok. ok must be a pure function of its
// argument — Set calls it too, on the setter's task and under x's lock —
// and hot paths pass a function value made once, not a fresh closure, to
// stay allocation-free.
//
// On a Proc that is not a Parker this is literally
//
//	for !ok(x.Get()) { p.Step() }
//
// so simulated schedules are unchanged. On a Parker the task takes the
// same steps for its Linger and then parks: the skip steps — which
// change no state and touch no register, and so are unobservable in the
// paper's model — are not taken at all until a Set makes ok true. The
// predicate is re-checked under the lock before every park, so a Set
// between the check and the park cannot be lost; a wake is only a hint,
// and Await loops on it.
func (x *Var[T]) Await(p Proc, ok func(T) bool) T {
	pk, parks := p.(Parker)
	var linger time.Duration
	if parks {
		linger = pk.Linger()
	}
	var start time.Time
	for {
		v := x.Get()
		if ok(v) {
			return v
		}
		if parks {
			if start.IsZero() {
				start = time.Now()
			}
			if time.Since(start) >= linger {
				x.park(pk, ok)
				continue
			}
		}
		p.Step()
	}
}

// park enlists the calling task and parks it, unless x satisfies ok by
// now. A task that its substrate stops or crashes unwinds out of Park and
// must not stay listed: Set would run its predicate for good.
func (x *Var[T]) park(pk Parker, ok func(T) bool) {
	wake := pk.Waker()
	if !x.enlist(wake, ok) {
		return
	}
	unwound := true
	defer func() {
		if unwound {
			x.delist(wake)
		}
	}()
	pk.Park()
	unwound = false
}

// enlist registers the task behind wake to be woken by the first Set that
// satisfies ok, unless x already does. It reports whether the task is
// listed and should park.
func (x *Var[T]) enlist(wake chan<- struct{}, ok func(T) bool) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if ok(x.v) {
		return false
	}
	for _, w := range x.waiters {
		if w.wake == wake { // still enlisted from a park that was interrupted
			return true
		}
	}
	x.waiters = append(x.waiters, waiter[T]{wake, ok})
	return true
}

// delist removes the waiter behind wake, if Set has not already.
func (x *Var[T]) delist(wake chan<- struct{}) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for i, w := range x.waiters {
		if w.wake == wake {
			last := len(x.waiters) - 1
			x.waiters[i] = x.waiters[last]
			x.waiters[last] = waiter[T]{}
			x.waiters = x.waiters[:last]
			return
		}
	}
}

// VarSlice returns a slice of n freshly allocated Vars, each initialized
// to v. It is a convenience for the paper's per-peer variable vectors such
// as monitoring_p[q] and active-for_q[p].
func VarSlice[T any](n int, v T) []*Var[T] {
	s := make([]*Var[T], n)
	for i := range s {
		s[i] = NewVar(v)
	}
	return s
}
