package explore

import (
	"fmt"
	"strings"

	"tbwf/internal/deploy"
	"tbwf/internal/lincheck"
	"tbwf/internal/prim"
	"tbwf/internal/shard"
	"tbwf/internal/sim"
)

// The shard/* targets fuzz the sharded keyspace layer: a shard.Map over
// two TBWF stacks on the simulation kernel, with a seed-derived keyed
// load script per process submitted in bursts (so multi-op batches are
// reachable) and polled cooperatively. Three oracles judge a run:
// per-(shard,replica) FIFO, accounting (hook completions vs shard
// counters, zero residual in-flight), and per-shard linearizability of
// the keyed history against the sequential shard.KV spec. The ablated
// variant rotates each multi-op batch's responses across its ops — the
// batch-fence negative control the lincheck oracle must catch.
const (
	// shardKVShards keeps two independent stacks so a run exercises
	// cross-shard routing while histories stay under the checker's cap.
	shardKVShards = 2
	// shardKVQueue / shardKVBatch keep the rings small enough that both
	// backpressure and multi-op batches are reachable.
	shardKVQueue = 4
	shardKVBatch = 4
	// shardBurstsPerProc / shardMaxBurst bound each process's script:
	// at most 3*2*4 = 24 ops total, far under the 64-op lincheck cap
	// even if one shard absorbs everything.
	shardBurstsPerProc = 2
	shardMaxBurst      = 4
	// shardMinSteps is the budget below which two stacks plus queueing
	// cannot be expected to drain the load (oracles go vacuous).
	shardMinSteps = 400_000
)

// shardScriptOp is one scripted keyed operation.
type shardScriptOp struct {
	key string
	op  shard.Op
}

// makeShardScript derives one process's bursts. Adds carry globally
// distinct deltas and puts globally distinct values (*seq advances per
// op), so batch-response rotation is visible to the checker: two
// rotated responses can only coincide while their keys' sums collide,
// which distinct updates quickly break.
func makeShardScript(env *Env, seq *int64) [][]shardScriptOp {
	bursts := make([][]shardScriptOp, shardBurstsPerProc)
	for b := range bursts {
		n := 2 + env.Rand().Intn(shardMaxBurst-1)
		for i := 0; i < n; i++ {
			*seq++
			key := fmt.Sprintf("k%d", env.Rand().Intn(4))
			var op shard.Op
			switch r := env.Rand().Float64(); {
			case r < 0.7:
				op = shard.Op{Kind: shard.Add, Key: key, Val: *seq}
			case r < 0.8:
				op = shard.Op{Kind: shard.Get, Key: key}
			case r < 0.9:
				op = shard.Op{Kind: shard.Put, Key: key, Val: 1000 + *seq}
			default:
				op = shard.Op{Kind: shard.CAS, Key: key, Old: env.Rand().Int63n(4), Val: 2000 + *seq}
			}
			bursts[b] = append(bursts[b], shardScriptOp{key: key, op: op})
		}
	}
	return bursts
}

// shardKVRig wires the sharded keyspace on the kernel, spawns one
// burst-submitting load task per process, and returns the three judges
// described in the comment at the top of this file; ablate removes the
// batch fence.
func shardKVRig(ablate bool) Rig {
	return func(k *sim.Kernel, env *Env) ([]Judge, error) {
		n := k.N()
		lanes := newLaneLog(shardKVShards, n)
		loadsDone := 0

		m, err := shard.New(deploy.Sim(k), shard.Config{
			Shards:           shardKVShards,
			QueueDepth:       shardKVQueue,
			MaxBatch:         shardKVBatch,
			RegisterOptions:  tapedRegisterOptions(env),
			AblateBatchFence: ablate,
			Hooks:            laneHooks[shard.Result](lanes),
		})
		if err != nil {
			return nil, err
		}
		m.Start()

		var seq int64
		scripts := make([][][]shardScriptOp, n)
		for p := range scripts {
			scripts[p] = makeShardScript(env, &seq)
		}

		histories := make([][]lincheck.Op[shard.Op, shard.Resp], shardKVShards)
		for p := 0; p < n; p++ {
			k.Spawn(p, fmt.Sprintf("load[%d]", p), func(pp prim.Proc) {
				pseudo := p * 100 // in-flight burst ops overlap; give each its own proc id
				for _, burst := range scripts[p] {
					type inflight struct {
						pd       *shard.Pending
						op       shard.Op
						shardIdx int
						invoke   int64
					}
					var flying []inflight
					for _, so := range burst {
						pd := shard.NewPending()
						for { // submit, riding out backpressure
							pd.Tag = lanes.tag
							sh, _, err := m.Submit(so.key, p, so.op, pd)
							if err == nil {
								lanes.accepted(sh, p)
								flying = append(flying, inflight{pd: pd, op: so.op, shardIdx: sh, invoke: k.Step()})
								break
							}
							if err != shard.ErrQueueFull {
								panic(fmt.Sprintf("shard target: scripted op rejected: %v", err))
							}
							pp.Step()
						}
					}
					for _, f := range flying { // poll the whole burst cooperatively
						for {
							res, ok := f.pd.Poll()
							if !ok {
								pp.Step()
								continue
							}
							histories[f.shardIdx] = append(histories[f.shardIdx], lincheck.Op[shard.Op, shard.Resp]{
								Proc:     pseudo,
								Invoke:   f.invoke,
								Response: k.Step(),
								Arg:      f.op,
								Resp:     res.Resp,
							})
							pseudo++
							break
						}
					}
				}
				loadsDone++
			})
		}

		// Accounting: the Map's counters must agree with the hook
		// observations, completed ops must fit each shard's log, and a
		// drained load leaves nothing in flight.
		accounting := func(*sim.Kernel, sim.RunResult) Judgement {
			var viols []string
			for s := 0; s < shardKVShards; s++ {
				observed := lanes.completions(s)
				st := m.Stats(s)
				if st.Served != observed {
					viols = append(viols, fmt.Sprintf("shard %d: counters say %d served, hooks observed %d", s, st.Served, observed))
				}
				if st.Served > st.Accepted {
					viols = append(viols, fmt.Sprintf("shard %d: served %d > accepted %d", s, st.Served, st.Accepted))
				}
				// One batch is one stack invocation, so batches — not items —
				// occupy log slots; items beyond batches are the amortization.
				if slots := m.Slots(s); st.Batches > slots {
					viols = append(viols, fmt.Sprintf("shard %d: %d batches exceed %d allocated log slots", s, st.Batches, slots))
				}
				var invocations int64
				for p := 0; p < n; p++ {
					invocations += m.ClientStats(s, p).Completed
				}
				if invocations != st.Batches {
					viols = append(viols, fmt.Sprintf("shard %d: stack completed %d invocations, counters say %d batches",
						s, invocations, st.Batches))
				}
			}
			if loadsDone == n && m.InFlight() != 0 {
				viols = append(viols, fmt.Sprintf("load drained but %d ops still counted in flight", m.InFlight()))
			}
			if len(viols) > 0 {
				return failf("%s", strings.Join(viols, "; "))
			}
			return okf("shard counters, hooks, logs and in-flight gauge agree")
		}
		// Per-shard linearizability against the sequential KV spec: each
		// shard's history is checked independently (see linearizable).
		linearizability := func(k *sim.Kernel, res sim.RunResult) Judgement {
			return linearizable(k, shard.KV{}, "keyed ops", loadUndrained(res, loadsDone, n, shardMinSteps), histories...)
		}
		return []Judge{lanes.fifo, accounting, linearizability}, nil
	}
}
