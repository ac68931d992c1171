package register

import (
	"fmt"

	"tbwf/internal/prim"
	"tbwf/internal/sim"
)

// Abortable is an abortable register simulated on the kernel: it behaves
// like an atomic register except that an operation whose [invocation,
// response] window overlaps another operation's window on the same register
// is *contended* and may abort, returning ⊥ (ok=false). An aborted write may
// or may not take effect (EffectPolicy); the writer cannot tell which.
//
// Crash semantics: a process that crashes between an operation's invocation
// and response stops interfering — the pending operation is discarded (a
// crash-interrupted write takes effect iff the EffectPolicy says so).
// Operations that overlapped its active window remain contended. This
// mirrors a register implemented from weaker primitives: once a process
// stops taking steps it can no longer cause aborts, which is exactly what
// the dual-heartbeat mechanism of Figure 5 relies on to tell a crashed
// writer from a slow one.
//
// The register is MWMR by default; NewAbortableSWSR restricts it to a
// single designated writer and reader, the flavor used throughout
// Section 6, and panics on a wiring mistake (a programmer error, like
// sync misuse).
type Abortable[T any] struct {
	k      *sim.Kernel
	name   string
	val    T
	abort  prim.AbortPolicy
	effect prim.EffectPolicy
	writer int // -1 = any
	reader int // -1 = any

	inFlight map[int]*abOp[T] // keyed by kernel task id
	stats    Stats
}

var _ prim.AbortableRegister[int] = (*Abortable[int])(nil)

type abOp[T any] struct {
	contended bool
	isWrite   bool
	val       T
	finished  bool
}

// NewAbortable creates an abortable register named name with initial value
// init. Without options it is MWMR with the strongest adversary: every
// contended operation aborts and aborted writes take no effect.
func NewAbortable[T any](k *sim.Kernel, name string, init T, opts ...prim.AbOption) *Abortable[T] {
	cfg := prim.ApplyAbOptions(opts...)
	return &Abortable[T]{
		k:        k,
		name:     name,
		val:      init,
		abort:    cfg.Abort,
		effect:   cfg.Effect,
		writer:   cfg.Writer,
		reader:   cfg.Reader,
		inFlight: make(map[int]*abOp[T]),
	}
}

// NewAbortableSWSR creates a single-writer single-reader abortable register,
// the flavor used by the algorithms of Section 6.
func NewAbortableSWSR[T any](k *sim.Kernel, name string, init T, writer, reader int, opts ...prim.AbOption) *Abortable[T] {
	return NewAbortable(k, name, init, append(opts, prim.WithRoles(writer, reader))...)
}

// Name returns the register's name.
func (r *Abortable[T]) Name() string { return r.name }

// Stats returns a snapshot of the register's operation counters.
func (r *Abortable[T]) Stats() Stats { return r.stats }

// Peek returns the register's current value without simulating an
// operation. For assertions in tests and harness hooks only.
func (r *Abortable[T]) Peek() T { return r.val }

// Read returns the register's value, or ok=false if the read aborted.
func (r *Abortable[T]) Read() (T, bool) {
	proc := r.k.CurrentProc()
	if r.reader >= 0 && proc != r.reader {
		panic(fmt.Sprintf("register: %s: process %d read an SWSR register owned by reader %d", r.name, proc, r.reader))
	}
	r.k.Metrics().Reads[proc]++
	r.stats.Reads++
	op := r.begin(false)
	defer r.discard(op)
	r.k.OpStep() // invocation step
	r.k.OpStep() // response step
	if r.finish(op, proc) {
		r.k.Metrics().ReadAborts[proc]++
		r.stats.ReadAborts++
		var zero T
		return zero, false
	}
	return r.val, true
}

// Write stores v, or reports ok=false if the write aborted, in which case
// it may or may not have taken effect.
func (r *Abortable[T]) Write(v T) bool {
	proc := r.k.CurrentProc()
	if r.writer >= 0 && proc != r.writer {
		panic(fmt.Sprintf("register: %s: process %d wrote an SWSR register owned by writer %d", r.name, proc, r.writer))
	}
	r.k.Metrics().Writes[proc]++
	r.stats.Writes++
	op := r.begin(true)
	op.val = v
	defer r.discard(op)
	r.k.OpStep()      // invocation step
	r.k.EffectDelay() // Δ adversary: a longer window means more contention
	r.k.OpStep()      // response step
	aborted := r.finish(op, proc)
	if aborted {
		r.k.Metrics().WriteAborts[proc]++
		r.stats.WriteAborts++
		if r.effect.TakesEffect(prim.Op{Register: r.name, Proc: proc, IsWrite: true, Step: r.k.Step()}) {
			r.val = v
		}
	} else {
		r.val = v
	}
	r.k.Trace().RecordWrite(sim.WriteEvent{
		Step: r.k.Step(), Proc: proc, Register: r.name, Aborted: aborted,
	})
	return !aborted
}

// begin registers a new in-flight operation and marks contention with every
// operation currently in flight.
func (r *Abortable[T]) begin(isWrite bool) *abOp[T] {
	op := &abOp[T]{isWrite: isWrite}
	if len(r.inFlight) > 0 {
		op.contended = true
		for _, o := range r.inFlight {
			o.contended = true
		}
	}
	r.inFlight[r.k.CurrentTask()] = op
	return op
}

// finish completes op and reports whether it aborted.
func (r *Abortable[T]) finish(op *abOp[T], proc int) (aborted bool) {
	op.finished = true
	delete(r.inFlight, r.k.CurrentTask())
	if !op.contended {
		return false
	}
	return r.abort.Abort(prim.Op{Register: r.name, Proc: proc, IsWrite: op.isWrite, Step: r.k.Step()})
}

// discard cleans up after a crash-interrupted operation: the deferred call
// runs when OpStep unwinds the task mid-operation. The pending operation is
// removed (the crashed process stops interfering) and an interrupted write
// takes effect iff the EffectPolicy says so.
func (r *Abortable[T]) discard(op *abOp[T]) {
	if op.finished {
		return
	}
	delete(r.inFlight, r.k.CurrentTask())
	if op.isWrite && r.effect.TakesEffect(prim.Op{Register: r.name, Proc: r.k.CurrentProc(), IsWrite: true, Step: r.k.Step()}) {
		r.val = op.val
	}
}
