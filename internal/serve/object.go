package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tbwf/internal/core"
	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
	"tbwf/internal/shard"
)

// WireOp is the object-agnostic JSON encoding of one operation. Kind
// selects the operation; the other fields are read per object:
//
//	counter:  add(delta), read
//	register: read, write(value), cas(old,new)
//	snapshot: update(index,value), scan
//	jobqueue: enq(value), deq
//	kv:       get, put(value), add(delta), cas(old,new) — all keyed
type WireOp struct {
	Kind string `json:"kind"`
	// Key routes an operation of the keyed object. It travels in the
	// request envelope ({"key":…,"op":{…}}), not in the op's own JSON.
	Key   string `json:"-"`
	Delta int64  `json:"delta,omitempty"`
	Value int64  `json:"value,omitempty"`
	Old   int64  `json:"old,omitempty"`
	New   int64  `json:"new,omitempty"`
	Index int    `json:"index,omitempty"`
}

// The wire protocol's instantiation of the request path (internal/shard):
// a Pending delivers a Result, under shard.PendingOf's ownership rule.
type (
	Pending = shard.PendingOf[Result]
	Hooks   = shard.HooksOf[Result]
)

var pendingPool sync.Pool

// NewPending prepares a pooled in-flight request slot for one operation
// of the given wire kind.
func NewPending(kind string) *Pending { return shard.NewPendingOf[Result](&pendingPool, kind) }

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

// Backend is the object-type-erased face of a deployed request path
// (shard.MapOf) on any substrate: the wire codec (Submit, ReadOp, Kinds)
// and the Map's own Start and telemetry taps, indexed by shard. An unkeyed
// object is the one-shard case — its only shard is 0 and every key routes
// there.
type Backend interface {
	// Start spawns the per-(shard, replica) worker tasks on the substrate.
	Start()
	// Submit decodes op and hands it to MapOf.Submit, keyed by op.Key, for
	// replica p (p < 0 round-robins). The error is nil, an admission
	// verdict (shard.ErrRateLimited, ErrQueueFull, ErrInFlight), or a bad
	// request. On success the result arrives on pd.Done.
	Submit(p int, op WireOp, pd *Pending) error
	// ReadOp returns the object's canonical read-only operation, if any.
	ReadOp() (WireOp, error)
	// Kinds lists the operation kinds the object accepts.
	Kinds() []string
	// The Map's taps; s is a shard, p a replica.
	Shards() int
	ShardFor(key string) int
	InFlight() int64
	Stats(s int) shard.Stats
	MeanBatch(s int) float64
	BatchHist(s int) []int64
	QueueDepth(s, p int) int
	ClientStats(s, p int) core.Stats
	QAStats(s, p int) qa.HandleStats
	Slots(s int) int64
	// Leaders is each process's current Ω∆ leader output (telemetry tap).
	Leaders(s int) []int
	// FaultMatrix is the elector's per-pair fault/penalty matrix; ok is
	// false when the elector maintains none (e.g. abortable-registers Ω∆).
	FaultMatrix(s int) (matrix [][]int64, ok bool)
	// ElectorName reports which Ω∆ implementation the stack runs on
	// ("atomic-registers", "abortable-registers", "nerio-lease", ...);
	// ElectorFlag its canonical flag name.
	ElectorName(s int) string
	ElectorFlag(s int) string
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

// unkeyedBatch is the batch bound of an unkeyed object's one-shard Map.
// It is 1, so every op is still its own Invoke: raising it is a
// performance change that needs its own measurement (the benchmark's
// http-slow1 workload divides CPU and steps by the clients' completed
// count, which must stay op-granular until that is revisited).
const unkeyedBatch = 1

// NewBackend deploys the named object's TBWF stack on the substrate as a
// one-shard request path with zero-value admission (a full queue answers
// shard.ErrQueueFull, nothing else sheds) and returns its wire-protocol
// face. Call Start to spawn the replica workers.
func NewBackend(sub prim.Substrate, cfg BackendConfig, hooks Hooks) (Backend, error) {
	build, ok := objectBuilders[cfg.Object]
	if !ok {
		return nil, fmt.Errorf("serve: unknown object %q (have %v)", cfg.Object, Objects())
	}
	if cfg.Build.NonCanonical {
		return nil, errors.New("serve: the request path deploys canonical clients only")
	}
	if cfg.SnapshotComponents <= 0 {
		cfg.SnapshotComponents = sub.N()
	}
	lanes := shard.ConfigOf[Result]{
		Shards:          1,
		QueueDepth:      cfg.QueueDepth,
		MaxBatch:        unkeyedBatch,
		RegisterOptions: cfg.Build.RegisterOptions,
		Hooks:           hooks,
	}
	if cfg.Build.Elector != nil {
		lanes.Electors = []elector.Builder{cfg.Build.Elector}
	}
	return build(sub, cfg, lanes)
}

// backend is the wire codec over one shard.MapOf: decode on the way in
// (Submit), encode on the way out (the Map's deliver function, set by
// newBackend). Queue, worker and Pending all belong to the Map, whose
// telemetry taps are promoted as they are.
type backend[S, O, R any] struct {
	*shard.MapOf[S, O, R, Result]
	decode func(WireOp) (O, error)
	read   string // kind of the read-only op; "" when the object has none
	kinds  []string
}

func newBackend[S, O, R any](sub prim.Substrate, lanes shard.ConfigOf[Result], dropRaw bool, typ qa.Type[S, []O, []R],
	decode func(WireOp) (O, error), encode func(R) any, read string, kinds []string) (Backend, error) {
	m, err := shard.NewOf(sub, typ, func(r R, lat time.Duration) Result {
		res := Result{Resp: encode(r), Latency: lat}
		if !dropRaw {
			res.Raw = r
		}
		return res
	}, lanes)
	if err != nil {
		return nil, err
	}
	return &backend[S, O, R]{MapOf: m, decode: decode, read: read, kinds: kinds}, nil
}

func (b *backend[S, O, R]) Submit(p int, op WireOp, pd *Pending) error {
	decoded, err := b.decode(op)
	if err != nil {
		return err
	}
	_, _, err = b.MapOf.Submit(op.Key, p, decoded, pd)
	return err
}

func (b *backend[S, O, R]) ReadOp() (WireOp, error) {
	if b.read == "" {
		return WireOp{}, errors.New("serve: object has no read-only operation")
	}
	return WireOp{Kind: b.read}, nil
}

func (b *backend[S, O, R]) Kinds() []string { return b.kinds }

// Objects returns the deployable object names, sorted.
func Objects() []string {
	names := make([]string, 0, len(objectBuilders))
	for name := range objectBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

var objectBuilders = map[string]func(sub prim.Substrate, cfg BackendConfig, lanes shard.ConfigOf[Result]) (Backend, error){
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

func buildCounter(sub prim.Substrate, cfg BackendConfig, lanes shard.ConfigOf[Result]) (Backend, error) {
	return newBackend(sub, lanes, cfg.DropRaw, qa.Batch(objtype.Counter{}),
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
		"read", []string{"add", "read"})
}

func buildRegister(sub prim.Substrate, cfg BackendConfig, lanes shard.ConfigOf[Result]) (Backend, error) {
	return newBackend(sub, lanes, cfg.DropRaw, qa.Batch(objtype.Register{}),
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
		"read", []string{"read", "write", "cas"})
}

func buildSnapshot(sub prim.Substrate, cfg BackendConfig, lanes shard.ConfigOf[Result]) (Backend, error) {
	m := cfg.SnapshotComponents
	return newBackend(sub, lanes, cfg.DropRaw, qa.Batch(objtype.Snapshot{Components: m}),
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
		"scan", []string{"update", "scan"})
}

func buildJobQueue(sub prim.Substrate, cfg BackendConfig, lanes shard.ConfigOf[Result]) (Backend, error) {
	return newBackend(sub, lanes, cfg.DropRaw, qa.Batch(objtype.Queue{}),
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
		"", []string{"enq", "deq"})
}
