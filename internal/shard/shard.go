package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tbwf/internal/core"
	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/mpsc"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
	"tbwf/internal/register"
	"tbwf/internal/serve/telemetry"
)

// ConfigOf sizes a deployment of request lanes whose completions deliver
// a T (Config is the keyspace's instantiation).
type ConfigOf[T any] struct {
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
	Hooks HooksOf[T]
	// AblateBatchFence, for the fuzzer's negative control only, rotates
	// response assignment within multi-op batches — breaking the fence
	// between batch order and response order that makes batching
	// transparent. The per-shard linearizability oracle must catch it.
	AblateBatchFence bool
}

// HooksOf observe Map events. Both are optional; Served fires from
// substrate worker tasks and Shed from the submitter, so neither may
// block.
type HooksOf[T any] struct {
	// Served fires after replica p of shard s completes pd as part of a
	// batch of the given size, before the result is delivered.
	Served func(s, p int, pd *PendingOf[T], batch int, lat time.Duration)
	// Shed fires when a submission to replica p of shard s is refused with
	// err (one of ErrRateLimited, ErrQueueFull, ErrInFlight).
	Shed func(s, p int, err error)
}

// PendingOf is one in-flight request whose completion delivers a T — the
// only in-flight slot type in the repo (Pending is the keyspace's
// instantiation, serve.Pending the wire protocol's). Create with
// NewPendingOf, Submit it, then block on Done (the HTTP path) or Poll
// cooperatively (sim tasks must never block on channels).
//
// Ownership rule: slots are pooled, and a slot may be Released only by
// the caller that received its result. A caller that abandons a request
// (HTTP context cancelled or server stopping while the op is queued) must
// NOT Release: the worker still holds the slot and will complete it into
// the buffered channel, so a recycled slot would hand a stale result to
// its next owner. An abandoned, or simply never released, slot is
// garbage-collected — a pool miss, nothing worse.
type PendingOf[T any] struct {
	// Kind is the wire operation kind, for per-kind telemetry ("" when the
	// submitter has none).
	Kind string
	// Tag is caller correlation data, carried through untouched (the
	// fuzzer's targets stamp submit-order sequence numbers here).
	Tag any
	// Shard and Replica are the routing outcome, recorded by Submit.
	Shard, Replica int

	start time.Time
	done  chan T
	home  *sync.Pool
}

// NewPendingOf prepares an in-flight slot for one operation, recycled
// through pool — one pool per delivered type, owned by the package that
// instantiates it — so the steady-state submit path allocates nothing.
func NewPendingOf[T any](pool *sync.Pool, kind string) *PendingOf[T] {
	pd, _ := pool.Get().(*PendingOf[T])
	if pd == nil {
		pd = &PendingOf[T]{done: make(chan T, 1), home: pool}
	}
	pd.Kind, pd.Tag, pd.start = kind, nil, time.Now()
	return pd
}

// Release returns the slot to its pool, once, under the ownership rule
// above; the caller must not touch pd after.
func (pd *PendingOf[T]) Release() {
	pd.Tag = nil
	pd.home.Put(pd)
}

// Done exposes the completion channel; exactly one result arrives.
func (pd *PendingOf[T]) Done() <-chan T { return pd.done }

// Poll returns the result without blocking; ok is false while the
// operation is in flight.
func (pd *PendingOf[T]) Poll() (res T, ok bool) {
	select {
	case res = <-pd.done:
		return res, true
	default:
		return res, false
	}
}

// queued pairs an op with its in-flight slot inside a (shard, replica)
// lane. The lanes are the repo's single bounded MPSC queue implementation
// (internal/mpsc): lock-free pushes from any number of submitters, pop
// order exactly linearized push order on both substrates (the fuzzer's
// FIFO oracle), and non-blocking polls so sim tasks never block outside
// the kernel's own scheduling.
type queued[O, T any] struct {
	op O
	pd *PendingOf[T]
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
type mapShard[S, O, R, T any] struct {
	stack   *deploy.Stack[S, []O, []R]
	flag    string // the elector's canonical flag name
	queues  []*mpsc.Queue[queued[O, T]]
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

// MapOf is the repo's one request path: S independent TBWF stacks of a
// batch-typed object over one substrate's N processes, with a bounded
// queue and a worker task per (shard, replica) — a process's operations
// must all flow through its one client, from its own task (Figure 7).
// Map is the string→int64 keyspace; the unkeyed single object of
// internal/serve is the S=1 case. Create with NewOf, then Start to spawn
// the S×N worker tasks.
type MapOf[S, O, R, T any] struct {
	sub      prim.Substrate
	cfg      ConfigOf[T]
	deliver  func(R, time.Duration) T
	shards   []*mapShard[S, O, R, T]
	inflight atomic.Int64
}

// NewOf deploys cfg.Shards stacks of typ on the substrate; deliver turns
// an op's typed response and latency into the T its submitter receives.
// Workers are not spawned yet — call Start.
func NewOf[S, O, R, T any](sub prim.Substrate, typ qa.Type[S, []O, []R],
	deliver func(R, time.Duration) T, cfg ConfigOf[T]) (*MapOf[S, O, R, T], error) {
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
	m := &MapOf[S, O, R, T]{sub: sub, cfg: cfg, deliver: deliver, shards: make([]*mapShard[S, O, R, T], cfg.Shards)}
	for s := range m.shards {
		builder := electors[s%len(electors)]
		stack, err := deploy.Build[S, []O, []R](sub, typ, deploy.BuildConfig{
			Elector:         builder,
			RegisterOptions: cfg.RegisterOptions,
		})
		if err != nil {
			return nil, fmt.Errorf("shard: build shard %d: %w", s, err)
		}
		sh := &mapShard[S, O, R, T]{
			stack:  stack,
			flag:   builder.FlagName(),
			queues: make([]*mpsc.Queue[queued[O, T]], sub.N()),
			bucket: newBucket(cfg.Admission),
			hist:   make([]telemetry.Counter, cfg.MaxBatch+1),
		}
		for p := range sh.queues {
			sh.queues[p] = mpsc.New[queued[O, T]](cfg.QueueDepth)
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
func (m *MapOf[S, O, R, T]) Start() {
	for s, sh := range m.shards {
		for p := 0; p < m.sub.N(); p++ {
			s, sh, p := s, sh, p
			q := sh.queues[p]
			client := sh.stack.Clients[p]
			m.sub.Spawn(p, fmt.Sprintf("shard[%d]-worker[%d]", s, p), func(pp prim.Proc) {
				buf := make([]queued[O, T], m.cfg.MaxBatch)
				for {
					n := q.PopBatch(buf)
					if n == 0 {
						q.Await(pp) // unwinds via prim.ExitTask on stop/crash/budget
						continue
					}
					items := buf[:n]
					// The QA log retains the batch slice; give it its own.
					ops := make([]O, len(items))
					for i := range items {
						ops[i] = items[i].op
					}
					resps := client.Invoke(pp, ops)
					if len(resps) != len(items) {
						panic(fmt.Sprintf("shard: %d responses for a %d-op batch", len(resps), len(items)))
					}
					if m.cfg.AblateBatchFence && len(items) > 1 {
						resps = append(append([]R(nil), resps[1:]...), resps[0])
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
						it.pd.done <- m.deliver(resps[i], lat)
						items[i] = queued[O, T]{} // don't retain the Pending
					}
				}
			})
		}
	}
}

// ShardFor returns the shard a key routes to.
func (m *MapOf[S, O, R, T]) ShardFor(key string) int { return KeyShard(key, len(m.shards)) }

// Submit routes op, by key, through admission control onto a replica's
// queue. replica < 0 round-robins within the shard. It returns the
// target shard and replica — also recorded on pd — along with the
// admission verdict: nil, or one of ErrRateLimited (429), ErrQueueFull /
// ErrInFlight (503). On success the result arrives on pd.Done.
//
// Admission order: the shard's token bucket first (rate policy, cheap,
// "client should slow down"), then the global in-flight cap, then the
// bounded queue (both "service is overloaded").
func (m *MapOf[S, O, R, T]) Submit(key string, replica int, op O, pd *PendingOf[T]) (int, int, error) {
	s := m.ShardFor(key)
	sh := m.shards[s]
	if replica < 0 {
		replica = int(sh.rr.Add(1)-1) % m.sub.N()
	} else if replica >= m.sub.N() {
		return s, replica, fmt.Errorf("shard: replica %d out of range [0,%d)", replica, m.sub.N())
	}
	pd.Shard, pd.Replica = s, replica
	shed := func(c *telemetry.Counter, err error) (int, int, error) {
		c.Inc()
		if m.cfg.Hooks.Shed != nil {
			m.cfg.Hooks.Shed(s, replica, err)
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
	if !sh.queues[replica].Push(queued[O, T]{op: op, pd: pd}) {
		m.inflight.Add(-1)
		return shed(&sh.shedQF, ErrQueueFull)
	}
	sh.accept.Inc()
	return s, replica, nil
}

// Shards returns the shard count.
func (m *MapOf[S, O, R, T]) Shards() int { return len(m.shards) }

// N returns the substrate's process (replica) count.
func (m *MapOf[S, O, R, T]) N() int { return m.sub.N() }

// InFlight returns the operations admitted but not yet completed.
func (m *MapOf[S, O, R, T]) InFlight() int64 { return m.inflight.Load() }

// Stats snapshots shard s's counters.
func (m *MapOf[S, O, R, T]) Stats(s int) Stats {
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
func (m *MapOf[S, O, R, T]) BatchHist(s int) []int64 {
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
func (m *MapOf[S, O, R, T]) MeanBatch(s int) float64 {
	sh := m.shards[s]
	b := sh.batches.Load()
	if b == 0 {
		return 0
	}
	return float64(sh.served.Load()) / float64(b)
}

// QueueDepth returns the current occupancy of shard s's replica-p queue.
func (m *MapOf[S, O, R, T]) QueueDepth(s, p int) int { return m.shards[s].queues[p].Len() }

// Leaders returns shard s's per-process Ω∆ leader outputs.
func (m *MapOf[S, O, R, T]) Leaders(s int) []int { return m.shards[s].stack.Leaders() }

// ElectorName returns shard s's Ω∆ implementation name; ElectorFlag its
// canonical registry flag name.
func (m *MapOf[S, O, R, T]) ElectorName(s int) string { return m.shards[s].stack.Elector.Name() }
func (m *MapOf[S, O, R, T]) ElectorFlag(s int) string { return m.shards[s].flag }

// Slots returns shard s's allocated QA log slots.
func (m *MapOf[S, O, R, T]) Slots(s int) int64 { return m.shards[s].stack.Object.Slots() }

// ClientStats and QAStats return the counters of shard s's replica-p TBWF
// client (each completion is one batch) and query-abortable handle.
func (m *MapOf[S, O, R, T]) ClientStats(s, p int) core.Stats {
	return m.shards[s].stack.Clients[p].Stats()
}
func (m *MapOf[S, O, R, T]) QAStats(s, p int) qa.HandleStats {
	return m.shards[s].stack.Object.Handle(p).Stats()
}

// FaultMatrix returns shard s's elector fault matrix, if it keeps one.
func (m *MapOf[S, O, R, T]) FaultMatrix(s int) ([][]int64, bool) {
	return m.shards[s].stack.FaultMatrix()
}
