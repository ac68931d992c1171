package qa

import (
	"fmt"
	"sync"

	"tbwf/internal/prim"
)

// Desc is an operation descriptor: the unit the log's consensus instances
// agree on. The (Proc, Seq) pair is the operation's unique identity; Nop
// descriptors are decided-but-skipped fillers used by Query to force a
// slot's fate.
type Desc[O any] struct {
	Proc int
	Seq  int64
	Op   O
	Nop  bool
}

// Accepted is one acceptor's vote state: the highest ballot at which it
// accepted a descriptor.
type Accepted[O any] struct {
	Has    bool
	Ballot int64
	D      Desc[O]
}

// Decision caches a slot's decided descriptor.
type Decision[O any] struct {
	Decided bool
	D       Desc[O]
}

// Factories creates the abortable registers a slot needs; they abstract the
// substrate so the construction itself uses nothing but abortable
// registers. Ballot registers X[p] and vote registers Y[p] are single-
// writer (process p) multi-reader; the decision register is multi-writer —
// but every write to it carries the same agreed value.
type Factories[O any] struct {
	Ballot func(name string, writer int) prim.AbortableRegister[int64]
	Accept func(name string, writer int) prim.AbortableRegister[Accepted[O]]
	Decide func(name string) prim.AbortableRegister[Decision[O]]
}

// slot is one abortable consensus instance: a single shared-memory Paxos
// ballot that returns ⊥ on any contention (an aborted register operation or
// an observed higher ballot) instead of looping. A proposer running solo
// always decides; agreement follows the standard ballot-voting argument
// (DESIGN.md §"qa").
type slot[O any] struct {
	x []prim.AbortableRegister[int64]       // X[p]: p's current ballot
	y []prim.AbortableRegister[Accepted[O]] // Y[p]: p's latest vote
	d prim.AbortableRegister[Decision[O]]
}

func newSlot[O any](n int, index int64, f Factories[O]) *slot[O] {
	s := &slot[O]{
		x: make([]prim.AbortableRegister[int64], n),
		y: make([]prim.AbortableRegister[Accepted[O]], n),
		d: f.Decide(fmt.Sprintf("qa[%d].D", index)),
	}
	for p := 0; p < n; p++ {
		s.x[p] = f.Ballot(fmt.Sprintf("qa[%d].X[%d]", index, p), p)
		s.y[p] = f.Accept(fmt.Sprintf("qa[%d].Y[%d]", index, p), p)
	}
	return s
}

// readDecision reads the slot's decision cache. ok=false is ⊥.
func (s *slot[O]) readDecision() (Decision[O], bool) {
	return s.d.Read()
}

// propose runs one ballot with the caller's descriptor. It returns the
// slot's decided descriptor (which may be another process's — deciding a
// leftover proposal on its owner's behalf is the helping that makes solo
// progress possible), or ok=false (⊥) if any register operation aborted or
// a higher ballot was observed.
func (s *slot[O]) propose(me int, ballot int64, v Desc[O]) (Desc[O], bool) {
	var zero Desc[O]
	// Phase 0: a decision may already exist.
	if dec, ok := s.d.Read(); !ok {
		return zero, false
	} else if dec.Decided {
		return dec.D, true
	}
	// Phase 1: claim the ballot.
	if !s.x[me].Write(ballot) {
		return zero, false
	}
	for q := range s.x {
		if q == me {
			continue
		}
		b, ok := s.x[q].Read()
		if !ok || b > ballot {
			return zero, false
		}
	}
	// Phase 2: adopt the highest accepted descriptor, if any.
	best := Accepted[O]{}
	for q := range s.y {
		a, ok := s.y[q].Read()
		if !ok {
			return zero, false
		}
		if a.Has && (!best.Has || a.Ballot > best.Ballot) {
			best = a
		}
	}
	if best.Has {
		v = best.D
	}
	// Phase 3: vote, then re-check that no higher ballot intervened.
	if !s.y[me].Write(Accepted[O]{Has: true, Ballot: ballot, D: v}) {
		return zero, false
	}
	for q := range s.x {
		if q == me {
			continue
		}
		b, ok := s.x[q].Read()
		if !ok || b > ballot {
			return zero, false
		}
	}
	// Decided. Cache the decision; an aborted cache write is harmless —
	// everyone re-running this ballot protocol decides the same value.
	s.d.Write(Decision[O]{Decided: true, D: v})
	return v, true
}

// reset reinitializes every register of a recycled slot, so the slot can
// serve a fresh log index. It reports false if any register does not
// support in-place reinitialization (then the store never recycles).
// Recycled slots keep the register names from their first incarnation;
// per-register telemetry attributes a recycled slot's traffic to the old
// index, which is acceptable for the aggregate counters it feeds.
func (s *slot[O]) reset() bool {
	type r64 interface{ Reset(int64) }
	type racc[T any] interface{ Reset(T) }
	for p := range s.x {
		rx, okx := s.x[p].(r64)
		ry, oky := s.y[p].(racc[Accepted[O]])
		if !okx || !oky {
			return false
		}
		rx.Reset(0)
		ry.Reset(Accepted[O]{})
	}
	rd, ok := s.d.(racc[Decision[O]])
	if !ok {
		return false
	}
	rd.Reset(Decision[O]{})
	return true
}

// slotStore grows the log lazily and, where the substrate allows it,
// recycles slots whose index every handle has replayed past. The mutex
// only guards window bookkeeping: on the simulation substrate tasks are
// globally sequenced anyway, but the same code must be safe on a
// real-time substrate.
//
// Recycling is what makes the steady-state invoke path allocation-free:
// without it every decided operation permanently retains (and every new
// operation allocates) a slot of 2n+1 registers. A slot at absolute index
// k is reclaimable once k < min over all handles of their replay position
// (handles only ever touch slots at or after their position), so the
// store keeps a sliding window [base, base+len(window)) of live slots and
// a free list of reset slots ready for reuse. The reclaim bound comes
// from the minNext callback, which must be conservative: it returns 0
// until every one of the n handles exists (a handle created later would
// start replaying at 0). Recycling additionally requires every register
// to support Reset — true for the rt substrate's typed registers, false
// for sim and net, whose stores therefore just grow (sim runs are finite
// and SnapshotLog verifiers want the full prefix).
type slotStore[O any] struct {
	mu      sync.Mutex
	n       int
	f       Factories[O]
	minNext func() int64 // conservative lower bound on future slot accesses; nil disables recycling

	window  []*slot[O] // window[i] is absolute index base+i
	base    int64      // absolute index of window[0]
	free    []*slot[O] // reset slots ready for reuse
	probed  bool       // reset-capability probe result is valid
	canRecy bool       // every register supports Reset
	total   int64      // absolute log length ever materialized (telemetry)
	alloc   int64      // slots freshly constructed (not served from the free list)
}

func (st *slotStore[O]) slot(k int64) *slot[O] {
	st.mu.Lock()
	defer st.mu.Unlock()
	if k < st.base {
		// Unreachable by construction (minNext is a lower bound on every
		// handle's position); fail loudly rather than corrupt agreement by
		// handing out a reused slot for a stale index.
		panic(fmt.Sprintf("qa: slot %d requested below recycled base %d", k, st.base))
	}
	for st.base+int64(len(st.window)) <= k {
		st.reclaimLocked()
		var s *slot[O]
		if n := len(st.free); n > 0 {
			s = st.free[n-1]
			st.free[n-1] = nil
			st.free = st.free[:n-1]
		} else {
			s = newSlot(st.n, st.total, st.f)
			st.alloc++
			if !st.probed {
				st.probed = true
				st.canRecy = s.reset()
			}
		}
		st.window = append(st.window, s)
		st.total++
	}
	return st.window[k-st.base]
}

// reclaimLocked slides the window past slots no handle can touch again,
// resetting them onto the free list. The survivors are compacted to the
// front of the window slice in place — re-slicing the head off instead
// would bleed backing-array capacity and make every subsequent append
// reallocate, putting a heap allocation back on the steady-state invoke
// path this recycling exists to keep clean. Caller holds st.mu.
func (st *slotStore[O]) reclaimLocked() {
	if !st.canRecy || st.minNext == nil {
		return
	}
	m := st.minNext()
	k := 0
	for st.base+int64(k) < m && k < len(st.window) {
		s := st.window[k]
		s.reset()
		st.free = append(st.free, s)
		k++
	}
	if k == 0 {
		return
	}
	n := copy(st.window, st.window[k:])
	for i := n; i < len(st.window); i++ {
		st.window[i] = nil
	}
	st.window = st.window[:n]
	st.base += int64(k)
}

func (st *slotStore[O]) len() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.total
}

// allocated returns how many slots were freshly constructed; on a
// recycling store it plateaus at roughly the handles' replay spread while
// len() keeps growing with the log.
func (st *slotStore[O]) allocated() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.alloc
}

// floor returns the lowest absolute index still held (0 unless slots have
// been recycled). SnapshotLog starts its cursor here.
func (st *slotStore[O]) floor() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.base
}
