package explore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tbwf/internal/deploy"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
	"tbwf/internal/serve"
	"tbwf/internal/shard"
	"tbwf/internal/sim"
)

// The request-path targets' trace hashes and verdicts, recorded at the
// commit before serve.tbwfBackend was folded into shard.MapOf (ebbf443).
// The fold's claim is that the unkeyed backend takes
// exactly the substrate steps it always did; these literals are that
// claim in a form a later refactor of the path cannot drift from
// unnoticed. A deliberate change to the path's step behaviour re-records
// them and says so.
func TestRequestPathTracesMatchPinnedParent(t *testing.T) {
	serveVerdicts := func(n int, object string) []Verdict {
		return []Verdict{
			{Oracle: "serve-fifo", OK: true, Detail: fmt.Sprintf("%d completions in accept order (0 backpressure rejections)", n)},
			{Oracle: "serve-accounting", OK: true, Detail: fmt.Sprintf("%d completions consistent across hooks, clients and log", n)},
			{Oracle: "serve-lincheck", OK: true, Detail: fmt.Sprintf("%d %s ops linearizable", n, object)},
		}
	}
	shardVerdicts := func(n int) []Verdict {
		return []Verdict{
			{Oracle: "shard-fifo", OK: true, Detail: fmt.Sprintf("%d completions in per-(shard,replica) accept order", n)},
			{Oracle: "shard-accounting", OK: true, Detail: "shard counters, hooks, logs and in-flight gauge agree"},
			{Oracle: "shard-lincheck", OK: true, Detail: fmt.Sprintf("%d keyed ops linearizable per shard", n)},
		}
	}
	for _, c := range []struct {
		target   string
		seed     int64
		strategy Strategy
		hash     string
		verdicts []Verdict
	}{
		{"serve/counter", 3, StrategyWalk, "fnv1a:d79bf324232e2867", serveVerdicts(8, "counter")},
		{"serve/counter", 7, StrategyPBound, "fnv1a:30af2f14798d8cd2", serveVerdicts(8, "counter")},
		{"serve/counter", 11, StrategyDLS, "fnv1a:0bad18e9907cd5f5", serveVerdicts(9, "counter")},
		{"serve/register", 3, StrategyWalk, "fnv1a:3de5bf3db8caafa1", serveVerdicts(10, "register")},
		{"serve/register", 7, StrategyPBound, "fnv1a:b59a25216611c378", serveVerdicts(10, "register")},
		{"serve/register", 11, StrategyDLS, "fnv1a:4c5d2e0551e35950", serveVerdicts(8, "register")},
		{"shard/kv", 3, StrategyWalk, "fnv1a:427254255278b712", shardVerdicts(14)},
		{"shard/kv", 7, StrategyPBound, "fnv1a:732a904f75e231cf", shardVerdicts(17)},
		{"shard/kv", 11, StrategyDLS, "fnv1a:e2e6e799bdf79460", shardVerdicts(19)},
	} {
		c := c
		t.Run(fmt.Sprintf("%s/%s-%d", c.target, c.strategy, c.seed), func(t *testing.T) {
			t.Parallel()
			out, err := Execute(Plan{Target: c.target, Seed: c.seed, Strategy: c.strategy})
			if err != nil {
				t.Fatal(err)
			}
			if out.TraceHash != c.hash {
				t.Errorf("trace hash %s, pinned %s", out.TraceHash, c.hash)
			}
			if !verdictsEqual(out.Verdicts, c.verdicts) {
				t.Errorf("verdicts %v, pinned %v", out.Verdicts, c.verdicts)
			}
		})
	}
}

// The unkeyed object is the S=1 case of the Map, literally: the same
// scripted load — two adds in flight per replica, so the queue holds more
// than the worker pops — through serve's counter backend and through a
// one-shard, batch-1 MapOf over the lifted counter deployed by hand takes
// the same steps in the same order — the steps the pre-fold backend took
// for this load at ebbf443, whose worker popped both queued ops at once
// and still invoked them one by one.
func TestUnkeyedBackendIsTheOneShardMap(t *testing.T) {
	const n, rounds, depth = 3, 3, 4
	const pinned = "fnv1a:d4236f3f1dfbb15b"
	// run drives the load through submit, which returns the op's poll.
	run := func(build func(sub prim.Substrate) (submit func(p int, delta int64) func() bool)) string {
		k := sim.New(n, sim.WithSchedule(sim.Random(42, nil)))
		submit := build(deploy.Sim(k))
		done := 0
		for p := 0; p < n; p++ {
			p := p
			k.Spawn(p, fmt.Sprintf("load[%d]", p), func(pp prim.Proc) {
				for i := 0; i < rounds; i++ {
					first, second := submit(p, int64(10*p+i)), submit(p, 1)
					for !first() || !second() {
						pp.Step()
					}
				}
				done++
			})
		}
		if _, err := k.Run(600_000); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		if done != n {
			t.Fatalf("only %d of %d load scripts finished", done, n)
		}
		return k.TraceHash()
	}

	viaBackend := run(func(sub prim.Substrate) func(int, int64) func() bool {
		b, err := serve.NewBackend(sub, serve.BackendConfig{Object: "counter", QueueDepth: depth}, serve.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		b.Start()
		return func(p int, delta int64) func() bool {
			pd := serve.NewPending("add")
			if err := b.Submit(p, serve.WireOp{Kind: "add", Delta: delta}, pd); err != nil {
				t.Fatal(err)
			}
			return pollOnce(pd)
		}
	})
	var pool sync.Pool
	viaMap := run(func(sub prim.Substrate) func(int, int64) func() bool {
		m, err := shard.NewOf(sub, qa.Batch(objtype.Counter{}),
			func(r int64, _ time.Duration) int64 { return r },
			shard.ConfigOf[int64]{Shards: 1, MaxBatch: 1, QueueDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		return func(p int, delta int64) func() bool {
			pd := shard.NewPendingOf[int64](&pool, "add")
			if _, _, err := m.Submit("", p, objtype.CounterOp{Delta: delta}, pd); err != nil {
				t.Fatal(err)
			}
			return pollOnce(pd)
		}
	})
	if viaBackend != pinned || viaMap != pinned {
		t.Fatalf("unkeyed backend trace %s, one-shard Map trace %s, pinned %s", viaBackend, viaMap, pinned)
	}
}

// pollOnce adapts a Pending to "has it completed yet", remembering a yes.
func pollOnce[T any](pd *shard.PendingOf[T]) func() bool {
	done := false
	return func() bool {
		if !done {
			_, done = pd.Poll()
		}
		return done
	}
}
