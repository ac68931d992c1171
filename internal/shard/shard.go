package shard

import (
	"fmt"
	"sync/atomic"
	"time"

	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/mpsc"
	"tbwf/internal/prim"
	"tbwf/internal/register"
	"tbwf/internal/serve/telemetry"
)

// Config sizes a sharded keyspace deployment.
type Config struct {
	// Shards is the number of independent TBWF stacks (default 1).
	Shards int
	// QueueDepth bounds each (shard, replica) request queue (default 64).
	QueueDepth int
	// MaxBatch bounds how many queued ops one worker turn folds into a
	// single QA round (default 16; 1 disables batching).
	MaxBatch int
	// Electors are cycled across shards: shard s gets Electors[s mod len].
	// Empty defaults every shard to elector.Atomic.
	Electors []elector.Builder
	// Admission is the overload policy (zero value: admit everything).
	Admission Admission
	// RegisterOptions apply to every abortable register of every stack.
	RegisterOptions []register.AbOption
	// Hooks observe served and shed operations (telemetry taps).
	Hooks Hooks
	// AblateBatchFence, for the fuzzer's negative control only, rotates
	// response assignment within multi-op batches — breaking the fence
	// between batch order and response order that makes batching
	// transparent. The per-shard linearizability oracle must catch it.
	AblateBatchFence bool
}

// Hooks observe Map events. Both are optional; Served fires from
// substrate worker tasks and Shed from the submitter, so neither may
// block.
type Hooks struct {
	// Served fires after replica p of shard s completes pd as part of a
	// batch of the given size, before the result is delivered.
	Served func(s, p int, pd *Pending, batch int, lat time.Duration)
	// Shed fires when a submission to shard s is refused with err (one of
	// ErrRateLimited, ErrQueueFull, ErrInFlight).
	Shed func(s int, err error)
}

// Pending is one in-flight keyed request. Create with NewPending,
// Submit it, then block on Done (the HTTP path) or Poll cooperatively
// (sim tasks must never block on channels).
type Pending struct {
	// Tag is caller correlation data, carried through untouched.
	Tag any

	start time.Time
	done  chan Result
}

// NewPending prepares an in-flight slot for one operation.
func NewPending() *Pending {
	return &Pending{start: time.Now(), done: make(chan Result, 1)}
}

// Done exposes the completion channel; exactly one Result arrives.
func (pd *Pending) Done() <-chan Result { return pd.done }

// Poll returns the result without blocking; ok is false while the
// operation is in flight.
func (pd *Pending) Poll() (Result, bool) {
	select {
	case r := <-pd.done:
		return r, true
	default:
		return Result{}, false
	}
}

// Result is one completed keyed operation.
type Result struct {
	Resp Resp
	// Latency is submit-to-completion wall time (meaningful on the live
	// substrate; host time, not steps, on the sim kernel).
	Latency time.Duration
}

// queued pairs a keyed op with its in-flight slot inside a
// (shard, replica) lane. The lanes are the repo's single bounded MPSC
// queue implementation (internal/mpsc), shared with the serve layer: sim
// tasks poll it without blocking, and pop order is exactly linearized
// push order on both substrates.
type queued struct {
	op Op
	pd *Pending
}

// Stats is one shard's counter snapshot.
type Stats struct {
	// Accepted counts admitted submissions; Served completed ones;
	// Batches the QA rounds they were folded into.
	Accepted int64
	Served   int64
	Batches  int64
	// ShedRateLimit counts 429-class sheds (empty token bucket);
	// ShedQueueFull and ShedInFlight the 503-class ones.
	ShedRateLimit int64
	ShedQueueFull int64
	ShedInFlight  int64
}

// mapShard is one shard: a full TBWF stack plus its queues and counters.
type mapShard struct {
	stack   *deploy.Stack[map[string]int64, []Op, []Resp]
	flag    string // the elector's canonical flag name
	queues  []*mpsc.Queue[queued]
	bucket  *bucket
	rr      atomic.Int64
	served  telemetry.Counter
	accept  telemetry.Counter
	batches telemetry.Counter
	shedRL  telemetry.Counter
	shedQF  telemetry.Counter
	shedIF  telemetry.Counter
	// hist[size] counts completed batches of that size (1..MaxBatch).
	hist []telemetry.Counter
}

// Map is a sharded keyspace over one substrate: S independent TBWF
// stacks sharing the substrate's N processes. Create with New, then
// Start to spawn the S×N worker tasks.
type Map struct {
	sub      prim.Substrate
	cfg      Config
	shards   []*mapShard
	inflight atomic.Int64
}

// New deploys cfg.Shards stacks on the substrate. Workers are not
// spawned yet — call Start (after telemetry hooks are in place).
func New(sub prim.Substrate, cfg Config) (*Map, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	electors := cfg.Electors
	if len(electors) == 0 {
		electors = []elector.Builder{elector.Atomic}
	}
	m := &Map{sub: sub, cfg: cfg, shards: make([]*mapShard, cfg.Shards)}
	for s := range m.shards {
		builder := electors[s%len(electors)]
		stack, err := deploy.Build[map[string]int64, []Op, []Resp](sub, BatchKV{}, deploy.BuildConfig{
			Elector:         builder,
			RegisterOptions: cfg.RegisterOptions,
		})
		if err != nil {
			return nil, fmt.Errorf("shard: build shard %d: %w", s, err)
		}
		sh := &mapShard{
			stack:  stack,
			flag:   builder.FlagName(),
			queues: make([]*mpsc.Queue[queued], sub.N()),
			bucket: newBucket(cfg.Admission),
			hist:   make([]telemetry.Counter, cfg.MaxBatch+1),
		}
		for p := range sh.queues {
			sh.queues[p] = mpsc.New[queued](cfg.QueueDepth)
		}
		m.shards[s] = sh
	}
	return m, nil
}

// Start spawns one worker task per (shard, replica). Each worker drains
// its queue in batches: it pops up to MaxBatch queued ops in one turn —
// flushing whatever is there when the queue drains, and at the MaxBatch
// boundary when it does not — and pushes the whole batch through the
// replica's TBWF client as a single invocation, so the batch costs one
// Ω∆ leader read and one QA agreement round. Responses are distributed
// back index-aligned (the batch fence). On an empty queue the worker
// waits in Queue.Await — skip steps on the simulation kernel, a park on
// the real-time runtime. A worker with no operation is not a candidate
// and owes Ω∆ nothing; its timeliness matters, and is observed, only from
// the moment Invoke sets candidate_p.
func (m *Map) Start() {
	for s, sh := range m.shards {
		for p := 0; p < m.sub.N(); p++ {
			s, sh, p := s, sh, p
			q := sh.queues[p]
			client := sh.stack.Clients[p]
			m.sub.Spawn(p, fmt.Sprintf("shard[%d]-worker[%d]", s, p), func(pp prim.Proc) {
				buf := make([]queued, m.cfg.MaxBatch)
				for {
					n := q.PopBatch(buf)
					if n == 0 {
						q.Await(pp)
						continue
					}
					items := buf[:n]
					// The QA log retains the batch slice; give it its own.
					ops := make([]Op, len(items))
					for i := range items {
						ops[i] = items[i].op
					}
					resps := client.Invoke(pp, ops)
					if len(resps) != len(items) {
						panic(fmt.Sprintf("shard: %d responses for a %d-op batch", len(resps), len(items)))
					}
					if m.cfg.AblateBatchFence && len(items) > 1 {
						resps = append(append([]Resp(nil), resps[1:]...), resps[0])
					}
					size := len(items)
					sh.batches.Inc()
					sh.hist[size].Inc()
					for i, it := range items {
						lat := time.Since(it.pd.start)
						sh.served.Inc()
						m.inflight.Add(-1)
						if m.cfg.Hooks.Served != nil {
							m.cfg.Hooks.Served(s, p, it.pd, size, lat)
						}
						it.pd.done <- Result{Resp: resps[i], Latency: lat}
						items[i] = queued{} // don't retain the Pending
					}
				}
			})
		}
	}
}

// ShardFor returns the shard a key routes to.
func (m *Map) ShardFor(key string) int { return KeyShard(key, len(m.shards)) }

// Submit routes op (keyed by key; op.Key is overwritten) through
// admission control onto a replica's queue. replica < 0 round-robins
// within the shard. It returns the target shard and replica along with
// the admission verdict: nil, or one of ErrRateLimited (429),
// ErrQueueFull / ErrInFlight (503). On success the result arrives on
// pd.Done.
//
// Admission order: the shard's token bucket first (rate policy, cheap,
// "client should slow down"), then the global in-flight cap, then the
// bounded queue (both "service is overloaded").
func (m *Map) Submit(key string, replica int, op Op, pd *Pending) (int, int, error) {
	s := m.ShardFor(key)
	sh := m.shards[s]
	op.Key = key
	if replica < 0 {
		replica = int(sh.rr.Add(1)-1) % m.sub.N()
	} else if replica >= m.sub.N() {
		return s, replica, fmt.Errorf("shard: replica %d out of range [0,%d)", replica, m.sub.N())
	}
	shed := func(c *telemetry.Counter, err error) (int, int, error) {
		c.Inc()
		if m.cfg.Hooks.Shed != nil {
			m.cfg.Hooks.Shed(s, err)
		}
		return s, replica, err
	}
	if !sh.bucket.take() {
		return shed(&sh.shedRL, ErrRateLimited)
	}
	if max := m.cfg.Admission.MaxInFlight; max > 0 && m.inflight.Add(1) > max {
		m.inflight.Add(-1)
		return shed(&sh.shedIF, ErrInFlight)
	} else if max <= 0 {
		m.inflight.Add(1)
	}
	if !sh.queues[replica].Push(queued{op: op, pd: pd}) {
		m.inflight.Add(-1)
		return shed(&sh.shedQF, ErrQueueFull)
	}
	sh.accept.Inc()
	return s, replica, nil
}

// Shards returns the shard count.
func (m *Map) Shards() int { return len(m.shards) }

// N returns the substrate's process (replica) count.
func (m *Map) N() int { return m.sub.N() }

// MaxBatch returns the effective batch bound.
func (m *Map) MaxBatch() int { return m.cfg.MaxBatch }

// InFlight returns the operations admitted but not yet completed.
func (m *Map) InFlight() int64 { return m.inflight.Load() }

// Stats snapshots shard s's counters.
func (m *Map) Stats(s int) Stats {
	sh := m.shards[s]
	return Stats{
		Accepted:      sh.accept.Load(),
		Served:        sh.served.Load(),
		Batches:       sh.batches.Load(),
		ShedRateLimit: sh.shedRL.Load(),
		ShedQueueFull: sh.shedQF.Load(),
		ShedInFlight:  sh.shedIF.Load(),
	}
}

// BatchHist returns shard s's batch-size histogram: index i counts
// completed batches of size i (index 0 is always 0).
func (m *Map) BatchHist(s int) []int64 {
	sh := m.shards[s]
	out := make([]int64, len(sh.hist))
	for i := range sh.hist {
		out[i] = sh.hist[i].Load()
	}
	return out
}

// MeanBatch returns shard s's mean completed-batch size (0 before any
// batch completes). Above 1 means the amortization is real: multiple
// ops rode one QA round.
func (m *Map) MeanBatch(s int) float64 {
	sh := m.shards[s]
	b := sh.batches.Load()
	if b == 0 {
		return 0
	}
	return float64(sh.served.Load()) / float64(b)
}

// QueueDepth returns the current occupancy of shard s's replica-p queue.
func (m *Map) QueueDepth(s, p int) int { return m.shards[s].queues[p].Len() }

// Leaders returns shard s's per-process Ω∆ leader outputs.
func (m *Map) Leaders(s int) []int { return m.shards[s].stack.Leaders() }

// ElectorName returns shard s's Ω∆ implementation name; ElectorFlag its
// canonical registry flag name.
func (m *Map) ElectorName(s int) string { return m.shards[s].stack.Elector.Name() }
func (m *Map) ElectorFlag(s int) string { return m.shards[s].flag }

// Slots returns shard s's allocated QA log slots.
func (m *Map) Slots(s int) int64 { return m.shards[s].stack.Object.Slots() }

// Completed returns shard s's per-replica completed batch-invocation
// counts (the TBWF clients' counters; each completion is one batch).
func (m *Map) Completed(s int) []int64 { return m.shards[s].stack.CompletedOps() }

// FaultMatrix returns shard s's elector fault matrix, if it keeps one.
func (m *Map) FaultMatrix(s int) ([][]int64, bool) { return m.shards[s].stack.FaultMatrix() }
