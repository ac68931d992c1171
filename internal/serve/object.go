package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tbwf/internal/core"
	"tbwf/internal/deploy"
	"tbwf/internal/mpsc"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
)

// WireOp is the object-agnostic JSON encoding of one operation. Kind
// selects the operation; the other fields are read per object:
//
//	counter:  add(delta), read
//	register: read, write(value), cas(old,new)
//	snapshot: update(index,value), scan
//	jobqueue: enq(value), deq
type WireOp struct {
	Kind  string `json:"kind"`
	Delta int64  `json:"delta,omitempty"`
	Value int64  `json:"value,omitempty"`
	Old   int64  `json:"old,omitempty"`
	New   int64  `json:"new,omitempty"`
	Index int    `json:"index,omitempty"`
}

// ErrQueueFull is returned by a backend when a replica's bounded request
// queue is full — the service's backpressure signal (HTTP 503).
var ErrQueueFull = errors.New("serve: replica queue full")

// errNoReadOp marks objects without a read-only operation.
var errNoReadOp = errors.New("serve: object has no read-only operation")

// Pending is one in-flight request. Create with NewPending, Submit it,
// then either block on Done (the HTTP path) or Poll from a cooperative
// task (the simulation path — sim tasks must never block on channels).
type Pending struct {
	// Kind is the wire operation kind, for per-kind telemetry.
	Kind string
	// Tag is caller correlation data, carried through untouched (the
	// fuzzer's serve targets stamp submit-order sequence numbers here).
	Tag any

	start time.Time
	done  chan Result
}

// pendingPool recycles Pending slots (and their buffered completion
// channels), so the steady-state submit path allocates nothing.
// Ownership rule: a Pending may be Released only by the caller that
// received its Result — a caller that abandons a request (e.g. HTTP
// context cancellation while the op is queued) must NOT Release, because
// the worker still holds the Pending and will complete it; the abandoned
// Pending is simply garbage-collected.
var pendingPool = sync.Pool{
	New: func() any { return &Pending{done: make(chan Result, 1)} },
}

// NewPending prepares an in-flight request slot for one operation. The
// slot comes from a pool; callers that consume the Result may hand the
// slot back with Release.
func NewPending(kind string) *Pending {
	pd := pendingPool.Get().(*Pending)
	pd.Kind = kind
	pd.Tag = nil
	pd.start = time.Now()
	return pd
}

// Release returns the Pending to the pool. Only the caller that received
// the Result may call it, exactly once, and must not touch pd after.
func (pd *Pending) Release() {
	pd.Tag = nil
	pendingPool.Put(pd)
}

// Done exposes the completion channel; exactly one Result arrives.
func (pd *Pending) Done() <-chan Result { return pd.done }

// Poll returns the result without blocking; ok is false while the
// operation is still in flight.
func (pd *Pending) Poll() (Result, bool) {
	select {
	case r := <-pd.done:
		return r, true
	default:
		return Result{}, false
	}
}

// Result is one completed operation.
type Result struct {
	// Resp is the wire-encoded response (what /v1/invoke returns). It may
	// implement Releaser; the consumer that finishes with it (after JSON
	// encoding) should then hand it back to its pool.
	Resp any
	// Raw is the typed response R of the object's sequential type — the
	// fuzzer's linearizability oracle consumes this. Backends built with
	// DropRaw leave it nil to keep the live path free of interface boxing.
	Raw any
	// Latency is submit-to-completion wall time (meaningful on the live
	// substrate; on the simulation kernel it reflects host time, not
	// simulated steps).
	Latency time.Duration
}

// Releaser is implemented by pooled wire-response values; calling Release
// returns the value to its pool. Consumers must not touch the value
// afterwards.
type Releaser interface{ Release() }

// ReleaseResult returns the Result's pooled parts (currently the Resp
// struct) to their pools. Safe on any Result; the zero Result is a no-op.
func ReleaseResult(r Result) {
	if rel, ok := r.Resp.(Releaser); ok {
		rel.Release()
	}
}

// Hooks observe backend events. Both are optional and are called from
// substrate tasks (Served) or the submitter (Rejected), so they must not
// block.
type Hooks struct {
	// Served fires after replica p completes pd, before the result is
	// delivered.
	Served func(p int, pd *Pending, lat time.Duration)
	// Rejected fires when replica p's queue backpressures a submission.
	Rejected func(p int)
}

// Backend is the object-type-erased face of a deployed TBWF stack on any
// substrate; the generic tbwfBackend implements it for each sequential
// type.
type Backend interface {
	// Start spawns the per-replica worker tasks on the substrate.
	Start()
	// Submit decodes op and enqueues it for replica p; ErrQueueFull means
	// backpressure, other errors are bad requests. On success the result
	// arrives on pd.Done.
	Submit(p int, op WireOp, pd *Pending) error
	// ReadOp returns the object's canonical read-only operation, if any.
	ReadOp() (WireOp, error)
	// Kinds lists the operation kinds the object accepts.
	Kinds() []string
	QueueDepth(p int) int
	ClientStats(p int) core.Stats
	QAStats(p int) qa.HandleStats
	Slots() int64
	// Leaders is each process's current Ω∆ leader output (telemetry tap).
	Leaders() []int
	// FaultMatrix is the elector's per-pair fault/penalty matrix; ok is
	// false when the elector maintains none (e.g. abortable-registers Ω∆).
	FaultMatrix() (matrix [][]int64, ok bool)
	// ElectorName reports which Ω∆ implementation the stack runs on
	// ("atomic-registers", "abortable-registers", "nerio-lease", ...).
	ElectorName() string
}

// BackendConfig sizes a backend deployment.
type BackendConfig struct {
	// Object names the deployed type: one of Objects().
	Object string
	// QueueDepth bounds each replica's request queue (default 64).
	QueueDepth int
	// SnapshotComponents sizes the snapshot object (default: the
	// substrate's process count).
	SnapshotComponents int
	// DropRaw leaves Result.Raw nil. The HTTP path sets it: only the
	// fuzzer's linearizability oracle reads Raw, and boxing every typed
	// response into an interface is an allocation per op.
	DropRaw bool
	// Build configures the TBWF stack (elector, register options).
	Build deploy.BuildConfig
}

// NewBackend deploys the named object's TBWF stack on the substrate and
// returns its wire-protocol face. Call Start to spawn the replica
// workers.
func NewBackend(sub prim.Substrate, cfg BackendConfig, hooks Hooks) (Backend, error) {
	build, ok := objectBuilders[cfg.Object]
	if !ok {
		return nil, fmt.Errorf("serve: unknown object %q (have %v)", cfg.Object, Objects())
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.SnapshotComponents <= 0 {
		cfg.SnapshotComponents = sub.N()
	}
	return build(sub, cfg, hooks)
}

// queued pairs a decoded operation with its in-flight slot inside a
// replica's request queue. The queue itself is the repo's single bounded
// MPSC implementation (internal/mpsc): lock-free pushes from any number
// of submitters, pop order exactly equal to linearized push order (the
// fuzzer's FIFO oracle), and non-blocking polls so simulation-kernel
// tasks never block outside the kernel's own scheduling (the cardinal
// sim rule).
type queued[O any] struct {
	op O
	pd *Pending
}

// tbwfBackend adapts one deploy.Stack to the wire protocol: a bounded
// request queue and a single worker task per replica (a process's
// operations must all flow through its one client, from its own task).
// On an empty ring the worker waits in Queue.Await: skip steps on the
// simulation kernel, a park on the real-time runtime. A worker with no
// operation is not a candidate and owes Ω∆ nothing; its timeliness
// matters, and is observed, only from the moment Invoke sets candidate_p.
type tbwfBackend[S, O, R any] struct {
	sub     prim.Substrate
	hooks   Hooks
	stack   *deploy.Stack[S, O, R]
	decode  func(WireOp) (O, error)
	encode  func(R) any
	read    *WireOp // nil: no read-only op
	kindsL  []string
	dropRaw bool
	queues  []*mpsc.Queue[queued[O]]
}

// workerBatch bounds how many queued items one worker wake drains before
// re-checking its queue: enough to amortize the queue poll, small enough
// to keep a replica's latency tail bounded under bursts.
const workerBatch = 32

func newBackend[S, O, R any](sub prim.Substrate, cfg BackendConfig, hooks Hooks, typ qa.Type[S, O, R],
	decode func(WireOp) (O, error), encode func(R) any, read *WireOp, kinds []string) (*tbwfBackend[S, O, R], error) {
	stack, err := deploy.Build[S, O, R](sub, typ, cfg.Build)
	if err != nil {
		return nil, err
	}
	b := &tbwfBackend[S, O, R]{
		sub:     sub,
		hooks:   hooks,
		stack:   stack,
		decode:  decode,
		encode:  encode,
		read:    read,
		kindsL:  kinds,
		dropRaw: cfg.DropRaw,
		queues:  make([]*mpsc.Queue[queued[O]], sub.N()),
	}
	for p := range b.queues {
		b.queues[p] = mpsc.New[queued[O]](cfg.QueueDepth)
	}
	return b, nil
}

func (b *tbwfBackend[S, O, R]) Start() {
	for p := 0; p < b.sub.N(); p++ {
		p := p
		q := b.queues[p]
		client := b.stack.Clients[p]
		b.sub.Spawn(p, fmt.Sprintf("serve-worker[%d]", p), func(pp prim.Proc) {
			batch := make([]queued[O], workerBatch)
			for {
				n := q.PopBatch(batch)
				if n == 0 {
					q.Await(pp) // unwinds via prim.ExitTask on stop/crash/budget
					continue
				}
				// One queue wake services the whole run of queued ops,
				// mirroring internal/shard's batch amortization; each op
				// still gets its own Invoke (the serve layer's objects are
				// not batch-typed).
				for i := 0; i < n; i++ {
					item := batch[i]
					batch[i] = queued[O]{} // don't retain the Pending
					r := client.Invoke(pp, item.op)
					lat := time.Since(item.pd.start)
					if b.hooks.Served != nil {
						b.hooks.Served(p, item.pd, lat)
					}
					res := Result{Resp: b.encode(r), Latency: lat}
					if !b.dropRaw {
						res.Raw = r
					}
					item.pd.done <- res
				}
			}
		})
	}
}

func (b *tbwfBackend[S, O, R]) Submit(p int, op WireOp, pd *Pending) error {
	decoded, err := b.decode(op)
	if err != nil {
		return err
	}
	if !b.queues[p].Push(queued[O]{op: decoded, pd: pd}) {
		if b.hooks.Rejected != nil {
			b.hooks.Rejected(p)
		}
		return ErrQueueFull
	}
	return nil
}

func (b *tbwfBackend[S, O, R]) ReadOp() (WireOp, error) {
	if b.read == nil {
		return WireOp{}, errNoReadOp
	}
	return *b.read, nil
}

func (b *tbwfBackend[S, O, R]) Kinds() []string      { return b.kindsL }
func (b *tbwfBackend[S, O, R]) QueueDepth(p int) int { return b.queues[p].Len() }
func (b *tbwfBackend[S, O, R]) ClientStats(p int) core.Stats {
	return b.stack.Clients[p].Stats()
}
func (b *tbwfBackend[S, O, R]) QAStats(p int) qa.HandleStats {
	return b.stack.Object.Handle(p).Stats()
}
func (b *tbwfBackend[S, O, R]) Slots() int64   { return b.stack.Object.Slots() }
func (b *tbwfBackend[S, O, R]) Leaders() []int { return b.stack.Leaders() }
func (b *tbwfBackend[S, O, R]) FaultMatrix() ([][]int64, bool) {
	return b.stack.FaultMatrix()
}
func (b *tbwfBackend[S, O, R]) ElectorName() string { return b.stack.Elector.Name() }

// Objects returns the deployable object names, sorted.
func Objects() []string {
	names := make([]string, 0, len(objectBuilders))
	for name := range objectBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

var objectBuilders = map[string]func(sub prim.Substrate, cfg BackendConfig, hooks Hooks) (Backend, error){
	"counter":  buildCounter,
	"register": buildRegister,
	"snapshot": buildSnapshot,
	"jobqueue": buildJobQueue,
}

// Pooled wire-response structs. The builders' encode closures used to
// allocate a map[string]… per served op; these produce the identical JSON
// shapes from pooled values that the HTTP handler releases after
// encoding (see ReleaseResult), so a steady-state op allocates nothing.

type counterResp struct {
	Prev int64 `json:"prev"`
}

var counterRespPool = sync.Pool{New: func() any { return new(counterResp) }}

func (c *counterResp) Release() { counterRespPool.Put(c) }

type registerResp struct {
	Prev    int64 `json:"prev"`
	Swapped bool  `json:"swapped"`
}

var registerRespPool = sync.Pool{New: func() any { return new(registerResp) }}

func (c *registerResp) Release() { registerRespPool.Put(c) }

type snapViewResp struct {
	View []int64 `json:"view"`
}

var snapViewRespPool = sync.Pool{New: func() any { return new(snapViewResp) }}

func (c *snapViewResp) Release() { c.View = nil; snapViewRespPool.Put(c) }

type snapPrevResp struct {
	Prev int64 `json:"prev"`
}

var snapPrevRespPool = sync.Pool{New: func() any { return new(snapPrevResp) }}

func (c *snapPrevResp) Release() { snapPrevRespPool.Put(c) }

type jobqueueResp struct {
	Value int64 `json:"value"`
	Ok    bool  `json:"ok"`
}

var jobqueueRespPool = sync.Pool{New: func() any { return new(jobqueueResp) }}

func (c *jobqueueResp) Release() { jobqueueRespPool.Put(c) }

func buildCounter(sub prim.Substrate, cfg BackendConfig, hooks Hooks) (Backend, error) {
	readOp := WireOp{Kind: "read"}
	return newBackend[int64, objtype.CounterOp, int64](sub, cfg, hooks, objtype.Counter{},
		func(op WireOp) (objtype.CounterOp, error) {
			switch op.Kind {
			case "add":
				return objtype.CounterOp{Delta: op.Delta}, nil
			case "read":
				return objtype.CounterOp{}, nil
			}
			return objtype.CounterOp{}, fmt.Errorf("serve: counter op kind %q (want add or read)", op.Kind)
		},
		func(r int64) any {
			c := counterRespPool.Get().(*counterResp)
			c.Prev = r
			return c
		},
		&readOp, []string{"add", "read"})
}

func buildRegister(sub prim.Substrate, cfg BackendConfig, hooks Hooks) (Backend, error) {
	readOp := WireOp{Kind: "read"}
	return newBackend[int64, objtype.RegOp, objtype.RegResp](sub, cfg, hooks, objtype.Register{},
		func(op WireOp) (objtype.RegOp, error) {
			switch op.Kind {
			case "read":
				return objtype.RegOp{Kind: objtype.RegRead}, nil
			case "write":
				return objtype.RegOp{Kind: objtype.RegWrite, New: op.Value}, nil
			case "cas":
				return objtype.RegOp{Kind: objtype.RegCAS, Old: op.Old, New: op.New}, nil
			}
			return objtype.RegOp{}, fmt.Errorf("serve: register op kind %q (want read, write or cas)", op.Kind)
		},
		func(r objtype.RegResp) any {
			c := registerRespPool.Get().(*registerResp)
			c.Prev, c.Swapped = r.Prev, r.Swapped
			return c
		},
		&readOp, []string{"read", "write", "cas"})
}

func buildSnapshot(sub prim.Substrate, cfg BackendConfig, hooks Hooks) (Backend, error) {
	m := cfg.SnapshotComponents
	readOp := WireOp{Kind: "scan"}
	return newBackend[[]int64, objtype.SnapOp, objtype.SnapResp](sub, cfg, hooks, objtype.Snapshot{Components: m},
		func(op WireOp) (objtype.SnapOp, error) {
			switch op.Kind {
			case "update":
				if op.Index < 0 || op.Index >= m {
					return objtype.SnapOp{}, fmt.Errorf("serve: snapshot index %d out of range [0,%d)", op.Index, m)
				}
				return objtype.SnapOp{Update: true, Index: op.Index, V: op.Value}, nil
			case "scan":
				return objtype.SnapOp{}, nil
			}
			return objtype.SnapOp{}, fmt.Errorf("serve: snapshot op kind %q (want update or scan)", op.Kind)
		},
		func(r objtype.SnapResp) any {
			if r.View != nil {
				c := snapViewRespPool.Get().(*snapViewResp)
				c.View = r.View
				return c
			}
			c := snapPrevRespPool.Get().(*snapPrevResp)
			c.Prev = r.Prev
			return c
		},
		&readOp, []string{"update", "scan"})
}

func buildJobQueue(sub prim.Substrate, cfg BackendConfig, hooks Hooks) (Backend, error) {
	return newBackend[[]int64, objtype.QueueOp, objtype.QueueResp](sub, cfg, hooks, objtype.Queue{},
		func(op WireOp) (objtype.QueueOp, error) {
			switch op.Kind {
			case "enq":
				return objtype.QueueOp{Enq: true, V: op.Value}, nil
			case "deq":
				return objtype.QueueOp{}, nil
			}
			return objtype.QueueOp{}, fmt.Errorf("serve: jobqueue op kind %q (want enq or deq)", op.Kind)
		},
		func(r objtype.QueueResp) any {
			c := jobqueueRespPool.Get().(*jobqueueResp)
			c.Value, c.Ok = r.V, r.Ok
			return c
		},
		nil, []string{"enq", "deq"})
}
