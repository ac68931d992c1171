// Package objtype provides sequential type specifications (qa.Type
// implementations) for the object types used by the examples, tests and
// benchmarks: counter, read/write/CAS register, FIFO queue and atomic
// snapshot.
//
// The paper's universal construction works for *any* type T (Theorem 15);
// these are the types its introduction motivates — ordinary shared objects
// whose operations are not commutative, so progress genuinely requires
// arbitration.
//
// All Apply implementations are persistent: they never mutate the input
// state, as package qa requires (every process replays the operation log
// independently).
package objtype

import "tbwf/internal/qa"

// Counter is a fetch-and-add counter. State is the count.
type Counter struct{}

var _ qa.Type[int64, CounterOp, int64] = Counter{}

// CounterOp adds Delta to the counter (Delta 0 is a read).
type CounterOp struct {
	Delta int64
}

// Init implements qa.Type.
func (Counter) Init() int64 { return 0 }

// Apply adds op.Delta and returns the *previous* value (fetch-and-add).
func (Counter) Apply(s int64, op CounterOp) (int64, int64) {
	return s + op.Delta, s
}

// RegOpKind selects a Register operation.
type RegOpKind int

const (
	// RegRead returns the current value.
	RegRead RegOpKind = iota + 1
	// RegWrite stores New and returns the previous value.
	RegWrite
	// RegCAS stores New if the current value equals Old; the response
	// reports the previous value and whether the swap happened.
	RegCAS
)

// Register is a read/write/compare-and-swap register — the classic
// universal-construction demo, since CAS has consensus number ∞.
type Register struct{}

var _ qa.Type[int64, RegOp, RegResp] = Register{}

// RegOp is one register operation.
type RegOp struct {
	Kind RegOpKind
	Old  int64
	New  int64
}

// RegResp is a register operation's response.
type RegResp struct {
	// Prev is the value before the operation.
	Prev int64
	// Swapped reports whether a RegCAS took effect.
	Swapped bool
}

// Init implements qa.Type.
func (Register) Init() int64 { return 0 }

// Apply implements qa.Type.
func (Register) Apply(s int64, op RegOp) (int64, RegResp) {
	switch op.Kind {
	case RegWrite:
		return op.New, RegResp{Prev: s}
	case RegCAS:
		if s == op.Old {
			return op.New, RegResp{Prev: s, Swapped: true}
		}
		return s, RegResp{Prev: s}
	default: // RegRead
		return s, RegResp{Prev: s}
	}
}

// Queue is a FIFO queue of int64 values.
type Queue struct{}

var _ qa.Type[[]int64, QueueOp, QueueResp] = Queue{}

// QueueOp enqueues V (Enq true) or dequeues (Enq false).
type QueueOp struct {
	Enq bool
	V   int64
}

// QueueResp is a queue operation's response: for dequeue, the value and
// whether the queue was non-empty; for enqueue, Ok is always true.
type QueueResp struct {
	V  int64
	Ok bool
}

// Init implements qa.Type.
func (Queue) Init() []int64 { return nil }

// Apply implements qa.Type persistently (the stored slice is never
// mutated).
func (Queue) Apply(s []int64, op QueueOp) ([]int64, QueueResp) {
	if op.Enq {
		next := make([]int64, len(s)+1)
		copy(next, s)
		next[len(s)] = op.V
		return next, QueueResp{V: op.V, Ok: true}
	}
	if len(s) == 0 {
		return s, QueueResp{}
	}
	next := make([]int64, len(s)-1)
	copy(next, s[1:])
	return next, QueueResp{V: s[0], Ok: true}
}
