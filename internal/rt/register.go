package rt

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tbwf/internal/prim"
)

// Atomic is a linearizable register on the real-time substrate: a plain
// mutex-protected value. Multi-writer, multi-reader.
type Atomic[T any] struct {
	mu   sync.RWMutex
	name string
	val  T

	reads, writes atomic.Int64 // counted outside the lock: reads stay shared
}

var _ prim.Register[int] = (*Atomic[int])(nil)

// NewNamedAtomic creates an atomic register named name, so telemetry and
// traces can attribute its operations on both substrates.
func NewNamedAtomic[T any](name string, init T) *Atomic[T] {
	return &Atomic[T]{name: name, val: init}
}

// Name returns the register's name ("" for unnamed registers).
func (r *Atomic[T]) Name() string { return r.name }

// Stats returns a snapshot of the register's operation counters.
func (r *Atomic[T]) Stats() prim.Stats {
	return prim.Stats{Reads: r.reads.Load(), Writes: r.writes.Load()}
}

// Read returns the register's value.
func (r *Atomic[T]) Read() T {
	r.reads.Add(1)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.val
}

// Write replaces the register's value.
func (r *Atomic[T]) Write(v T) {
	r.writes.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.val = v
}

// Reset reinitializes the register to v, as if freshly created. It exists
// so a recycled consensus slot can reuse its registers instead of
// allocating new ones; callers must guarantee no operation is in flight.
func (r *Atomic[T]) Reset(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.val = v
}

// Abortable is an abortable register on the real-time substrate with true
// concurrency detection: every operation registers itself as in flight,
// briefly yields (so overlap is genuinely possible), and is *contended* if
// any other operation on the register was in flight at any point during
// its window. Whether a contended operation aborts is the AbortPolicy's
// call, and whether an aborted write takes effect is the EffectPolicy's —
// the defaults (every contended operation aborts, aborted writes take no
// effect) are the strongest adversary allowed by the specification,
// matching the simulation substrate's default.
//
// Policy decisions see Proc = -1 (the runtime cannot attribute an
// operation to a process) and Step = the register's own operation
// sequence number. SWSR roles from WithRoles are recorded for telemetry
// but not enforced, for the same reason.
type Abortable[T any] struct {
	mu     sync.Mutex
	name   string
	cfg    prim.AbConfig
	val    T
	active int   // operations currently inside their overlap window
	opGen  int64 // bumped on every begin; doubles as the op's policy Step
	stats  prim.Stats
}

var _ prim.AbortableRegister[int] = (*Abortable[int])(nil)

// NewNamedAbortable creates an abortable register named name, configured
// by the same options vocabulary as the simulation substrate's registers.
func NewNamedAbortable[T any](name string, init T, opts ...prim.AbOption) *Abortable[T] {
	return &Abortable[T]{
		name: name,
		cfg:  prim.ApplyAbOptions(opts...),
		val:  init,
	}
}

// Name returns the register's name ("" for unnamed registers).
func (r *Abortable[T]) Name() string { return r.name }

// Roles returns the recorded SWSR roles (-1, -1 when unrestricted).
func (r *Abortable[T]) Roles() (writer, reader int) { return r.cfg.Writer, r.cfg.Reader }

// Stats returns a snapshot of the register's operation counters.
func (r *Abortable[T]) Stats() prim.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// begin opens an operation's overlap window. It returns the operation's
// id (its generation number) and whether it is already contended because
// other operations were in flight when it began. No per-operation heap
// object exists: an operation is contended iff active > 0 at its begin or
// opGen advanced during its window (some other operation began before it
// ended) — exactly the "overlapped at any point" relation the old
// in-flight map tracked, in two ints.
func (r *Abortable[T]) begin(isWrite bool) (id int64, contended bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if isWrite {
		r.stats.Writes++
	} else {
		r.stats.Reads++
	}
	contended = r.active > 0
	r.active++
	r.opGen++
	return r.opGen, contended
}

// Read returns the register's value, or ok=false if the read overlapped
// another operation and the abort policy aborted it. The completion check
// and the value read happen under one lock acquisition, which is the
// read's linearization point.
func (r *Abortable[T]) Read() (T, bool) {
	id, contended := r.begin(false)
	runtime.Gosched() // give the operation a real window
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active--
	if (contended || r.opGen > id) && r.cfg.Abort.Abort(prim.Op{Register: r.name, Proc: -1, IsWrite: false, Step: id}) {
		r.stats.ReadAborts++
		var zero T
		return zero, false
	}
	return r.val, true
}

// Write stores v, or reports false if the write overlapped another
// operation and the abort policy aborted it; an aborted write takes
// effect iff the effect policy says so.
func (r *Abortable[T]) Write(v T) bool {
	id, contended := r.begin(true)
	runtime.Gosched()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active--
	if contended || r.opGen > id {
		pop := prim.Op{Register: r.name, Proc: -1, IsWrite: true, Step: id}
		if r.cfg.Abort.Abort(pop) {
			r.stats.WriteAborts++
			if r.cfg.Effect.TakesEffect(pop) {
				r.val = v
			}
			return false
		}
	}
	r.val = v
	return true
}

// Reset reinitializes the register to v, as if freshly created, so a
// recycled consensus slot can reuse its registers. Callers must guarantee
// no operation is in flight.
func (r *Abortable[T]) Reset(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.val = v
}
