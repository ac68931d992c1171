package explore

import (
	"fmt"
	"time"

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

// shardTargets returns the sharded-keyspace registry entries.
func shardTargets() []Target {
	return []Target{
		{
			Name:      "shard/kv",
			Desc:      "sharded keyspace (2 TBWF stacks, batched workers); FIFO, accounting and per-shard lincheck oracles",
			Oracles:   []string{"shard-fifo", "shard-accounting", "shard-lincheck"},
			N:         3,
			Steps:     800_000,
			NoCrashes: true, // the oracles need every accepted op to settle
			CrashProc: -1,
			Build: func(k *sim.Kernel, env *Env) (Check, error) {
				return buildShardKV(k, env, false)
			},
		},
		{
			Name:      "shard/kv-nobatchfence",
			Desc:      "ablated: batch responses rotated across the batch's ops; per-shard lincheck must fail",
			Oracles:   []string{"shard-fifo", "shard-accounting", "shard-lincheck"},
			N:         3,
			Steps:     800_000,
			Ablated:   true,
			NoCrashes: true,
			CrashProc: -1,
			Build: func(k *sim.Kernel, env *Env) (Check, error) {
				return buildShardKV(k, env, true)
			},
		},
	}
}

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

// buildShardKV wires the sharded keyspace on the kernel, spawns one
// burst-submitting load task per process, and returns the three-oracle
// check described in the package comment above.
func buildShardKV(k *sim.Kernel, env *Env, ablate bool) (Check, error) {
	n := k.N()

	// Per-(shard,replica) accounting. All writes happen inside kernel
	// tasks (the Served hook fires in a worker task), one task at a time,
	// so plain slices are safe.
	acceptOrder := make([][][]int64, shardKVShards)
	serveOrder := make([][][]int64, shardKVShards)
	for s := range acceptOrder {
		acceptOrder[s] = make([][]int64, n)
		serveOrder[s] = make([][]int64, n)
	}
	loadsDone := 0

	m, err := shard.New(deploy.Sim(k), shard.Config{
		Shards:           shardKVShards,
		QueueDepth:       shardKVQueue,
		MaxBatch:         shardKVBatch,
		RegisterOptions:  tapedRegisterOptions(env),
		AblateBatchFence: ablate,
		Hooks: shard.Hooks{
			Served: func(s, p int, pd *shard.Pending, batch int, _ time.Duration) {
				serveOrder[s][p] = append(serveOrder[s][p], pd.Tag.(int64))
			},
		},
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
	var tag int64
	for p := 0; p < n; p++ {
		p := p
		script := scripts[p]
		k.Spawn(p, fmt.Sprintf("load[%d]", p), func(pp prim.Proc) {
			pseudo := p * 100 // in-flight burst ops overlap; give each its own proc id
			for _, burst := range script {
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
						pd.Tag = tag
						sh, _, err := m.Submit(so.key, p, so.op, pd)
						if err == nil {
							acceptOrder[sh][p] = append(acceptOrder[sh][p], tag)
							tag++
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

	check := func(k *sim.Kernel, res sim.RunResult) []Verdict {
		var vs []Verdict

		// FIFO: each (shard,replica) ring drains in accept order, and a
		// batch's responses are delivered in batch index order, so the
		// completion sequence must be a prefix of the accept sequence.
		const fifoOracle = "shard-fifo"
		fifoOK := true
		for s := 0; s < shardKVShards; s++ {
			for p := 0; p < n; p++ {
				if len(serveOrder[s][p]) > len(acceptOrder[s][p]) {
					vs = append(vs, failf(fifoOracle, "shard %d replica %d completed %d ops but accepted only %d",
						s, p, len(serveOrder[s][p]), len(acceptOrder[s][p])))
					fifoOK = false
					continue
				}
				for i, got := range serveOrder[s][p] {
					if got != acceptOrder[s][p][i] {
						vs = append(vs, failf(fifoOracle, "shard %d replica %d completion %d: tag %d, accept order has %d",
							s, p, i, got, acceptOrder[s][p][i]))
						fifoOK = false
						break
					}
				}
			}
		}
		if fifoOK {
			var total int64
			for s := 0; s < shardKVShards; s++ {
				for p := 0; p < n; p++ {
					total += int64(len(serveOrder[s][p]))
				}
			}
			vs = append(vs, okf(fifoOracle, "%d completions in per-(shard,replica) accept order", total))
		}

		// Accounting: the Map's counters must agree with the hook
		// observations, completed ops must fit each shard's log, and a
		// drained load leaves nothing in flight.
		const acctOracle = "shard-accounting"
		acctOK := true
		for s := 0; s < shardKVShards; s++ {
			var observed int64
			for p := 0; p < n; p++ {
				observed += int64(len(serveOrder[s][p]))
			}
			st := m.Stats(s)
			if st.Served != observed {
				vs = append(vs, failf(acctOracle, "shard %d: counters say %d served, hooks observed %d", s, st.Served, observed))
				acctOK = false
			}
			if st.Served > st.Accepted {
				vs = append(vs, failf(acctOracle, "shard %d: served %d > accepted %d", s, st.Served, st.Accepted))
				acctOK = false
			}
			// One batch is one stack invocation, so batches — not items —
			// occupy log slots; items beyond batches are the amortization.
			if slots := m.Slots(s); st.Batches > slots {
				vs = append(vs, failf(acctOracle, "shard %d: %d batches exceed %d allocated log slots", s, st.Batches, slots))
				acctOK = false
			}
			var invocations int64
			for p := 0; p < n; p++ {
				invocations += m.ClientStats(s, p).Completed
			}
			if invocations != st.Batches {
				vs = append(vs, failf(acctOracle, "shard %d: stack completed %d invocations, counters say %d batches",
					s, invocations, st.Batches))
				acctOK = false
			}
		}
		if loadsDone == n && m.InFlight() != 0 {
			vs = append(vs, failf(acctOracle, "load drained but %d ops still counted in flight", m.InFlight()))
			acctOK = false
		}
		if acctOK {
			vs = append(vs, okf(acctOracle, "shard counters, hooks, logs and in-flight gauge agree"))
		}

		// Per-shard linearizability against the sequential KV spec. Ops on
		// different shards touch disjoint keys (routing is by key hash), so
		// checking each shard's history independently is sound and keeps
		// both searches under the 64-op cap.
		const linOracle = "shard-lincheck"
		if loadsDone < n {
			if res.Steps < shardMinSteps {
				return append(vs, vacuousf(linOracle, "budget %d < %d: load did not finish (%d/%d)",
					res.Steps, shardMinSteps, loadsDone, n))
			}
			return append(vs, vacuousf(linOracle, "load did not drain (%d/%d processes finished): history incomplete", loadsDone, n))
		}
		linTotal := 0
		for s := 0; s < shardKVShards; s++ {
			hist := histories[s]
			if len(hist) == 0 {
				continue
			}
			_, ok, err := lincheck.Check(shard.KV{}, hist, lincheck.Options[map[string]int64, shard.Resp]{})
			if err != nil {
				return append(vs, vacuousf(linOracle, "shard %d: checker rejected the history: %v", s, err))
			}
			if !ok {
				return append(vs, failf(linOracle, "shard %d: history of %d keyed ops is not linearizable", s, len(hist)))
			}
			linTotal += len(hist)
		}
		if linTotal == 0 {
			return append(vs, vacuousf(linOracle, "empty history"))
		}
		return append(vs, okf(linOracle, "%d keyed ops linearizable per shard", linTotal))
	}
	return check, nil
}
