// Package qa implements query-abortable objects (the paper's type T_QA,
// Section 7 and footnote 3) from abortable registers.
//
// An object of type T_QA behaves like an object of type T except that
// (i) an operation that runs concurrently with another operation may abort,
// returning ⊥, in which case it may or may not have taken effect; and
// (ii) an extra operation, query, tells the caller the fate of its last
// non-query operation: the response it produced if it took effect, or F if
// it did not. Query may itself abort.
//
// The paper takes the wait-free universal construction of T_QA from
// abortable registers as given (citing Aguilera, Frolund, Hadzilacos, Horn
// and Toueg, PODC'07). This package supplies that substrate with a
// construction in the same spirit, documented in DESIGN.md:
//
//   - the object is a log of operation descriptors; slot k of the log is
//     settled by an *abortable consensus* instance built from single-writer
//     abortable registers using ballot voting (a shared-memory Paxos round
//     that returns ⊥ instead of retrying when it detects contention);
//   - Invoke appends the caller's descriptor by proposing it at the first
//     undecided slot, helping decide leftover proposals it encounters;
//   - Query settles the fate of the last operation by forcing a decision
//     (proposing a no-op) at every slot where the operation was proposed,
//     then checking whether the operation's unique (process, sequence) tag
//     was decided.
//
// The construction is wait-free (every call returns in a bounded number of
// its own steps, with ⊥ an allowed outcome), non-aborted operations
// linearize in log order, and a process running solo eventually completes
// every operation without ⊥ — the properties Figure 7 relies on.
package qa

// Type is the sequential specification of an object type T: an initial
// state and a transition function. Apply must be *persistent*: it returns
// the successor state without mutating its input (each process replays the
// operation log independently, so shared mutable state would alias).
type Type[S, O, R any] interface {
	// Init returns the object's initial state.
	Init() S
	// Apply applies op to s, returning the successor state and the
	// operation's response. It must not mutate s.
	Apply(s S, op O) (S, R)
}

// TypeFuncs builds a Type from plain functions.
type TypeFuncs[S, O, R any] struct {
	InitFn  func() S
	ApplyFn func(s S, op O) (S, R)
}

// Init implements Type.
func (t TypeFuncs[S, O, R]) Init() S { return t.InitFn() }

// Apply implements Type.
func (t TypeFuncs[S, O, R]) Apply(s S, op O) (S, R) { return t.ApplyFn(s, op) }

// Batch lifts a single-operation type to its batch form: one operation
// of the lifted type is a slice of t's, applied in order, with one
// response per op, index-aligned. It is how a type without a native
// batch form rides a batching request lane (internal/shard); a type that
// can fold a batch more cheaply than op by op (shard.BatchKV: one map
// copy per batch) keeps its own Apply.
func Batch[S, O, R any](t Type[S, O, R]) Type[S, []O, []R] { return batched[S, O, R]{t} }

type batched[S, O, R any] struct{ t Type[S, O, R] }

func (b batched[S, O, R]) Init() S { return b.t.Init() }

// Apply folds the batch; t.Apply is persistent, so the fold is too.
func (b batched[S, O, R]) Apply(s S, ops []O) (S, []R) {
	resps := make([]R, len(ops))
	for i, op := range ops {
		s, resps[i] = b.t.Apply(s, op)
	}
	return s, resps
}

// QueryOutcome is the result of a Query call.
type QueryOutcome int

const (
	// QueryAborted is ⊥: the query itself aborted; the fate of the last
	// operation remains unknown. Retry.
	QueryAborted QueryOutcome = iota
	// QueryApplied reports that the last operation took effect; the
	// accompanying response is the one the operation should have returned.
	QueryApplied
	// QueryNotApplied is the paper's F: the last operation definitely did
	// not take effect and never will.
	QueryNotApplied
)

// String returns the paper's notation for the outcome.
func (o QueryOutcome) String() string {
	switch o {
	case QueryApplied:
		return "applied"
	case QueryNotApplied:
		return "F"
	default:
		return "⊥"
	}
}
