package explore

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tbwf/internal/adversary"
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
			{Oracle: "serve-fifo", OK: true, Detail: fmt.Sprintf("%d completions in per-(shard,replica) accept order (0 backpressure rejections)", n)},
			{Oracle: "serve-accounting", OK: true, Detail: fmt.Sprintf("%d completions consistent across hooks, clients and log", n)},
			{Oracle: "serve-lincheck", OK: true, Detail: fmt.Sprintf("%d %s ops linearizable", n, object)},
		}
	}
	shardVerdicts := func(n int) []Verdict {
		return []Verdict{
			{Oracle: "shard-fifo", OK: true, Detail: fmt.Sprintf("%d completions in per-(shard,replica) accept order (0 backpressure rejections)", n)},
			{Oracle: "shard-accounting", OK: true, Detail: "shard counters, hooks, logs and in-flight gauge agree"},
			{Oracle: "shard-lincheck", OK: true, Detail: fmt.Sprintf("%d keyed ops linearizable", n)},
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

// pinnedDLS is the (Φ,Δ) point a dls pin runs under, by seed: the mildest
// cell, the fixed-wide monitor's calibration cell, and one inside
// defaultDLS's caps that every sound row's premises survive.
var pinnedDLS = map[int64]adversary.DLS{3: {Phi: 1}, 7: {Phi: 4, Delta: 8}, 11: {Phi: 2, Delta: 4}}

// Every registered target at three (seed, strategy) points, recorded at
// the commit before the registry became a table (87db7e9): the run's
// TraceHash, and per verdict its oracle name and whether it passed,
// failed or was vacuous. The plan is NewPlan's (so forced crashes and
// partition schedules are pinned with it) with the strategy overridden
// and, for dls, the point from pinnedDLS. Budget 200 000 is the CI
// sweep's; the rows whose oracles are vacuous there for want of steps
// (counter-*, net/reorder, and the batch-fence ablation next to the nine
// request-path pins above) get one default-budget point each, skipped
// under -short. A refactor of a rig, an oracle or the plan generator
// cannot move any of this unnoticed; a deliberate change re-records the
// literals and says so.
func TestAllTargetsMatchPinnedParent(t *testing.T) {
	pins := []struct {
		target   string
		seed     int64
		strategy Strategy
		budget   int64 // 0: the target's default
		hash     string
		verdicts string // "oracle=ok|vacuous|FAIL", space-separated, in order
	}{
		{"qa-counter", 3, StrategyWalk, 200000, "fnv1a:e81792a9e30d6bc9", "lincheck=ok"},
		{"qa-counter", 7, StrategyPBound, 200000, "fnv1a:5687817f15802974", "lincheck=ok"},
		{"qa-counter", 11, StrategyDLS, 200000, "fnv1a:2b73300725752618", "lincheck=ok"},
		{"qa-counter-misreport", 3, StrategyWalk, 200000, "fnv1a:e81792a9e30d6bc9", "lincheck=FAIL"},
		{"qa-counter-misreport", 7, StrategyPBound, 200000, "fnv1a:5687817f15802974", "lincheck=FAIL"},
		{"qa-counter-misreport", 11, StrategyDLS, 200000, "fnv1a:2b73300725752618", "lincheck=FAIL"},
		{"counter-atomic", 3, StrategyWalk, 200000, "fnv1a:9c710741113856fb", "log-accounting=ok tbwf-progress=vacuous"},
		{"counter-atomic", 7, StrategyPBound, 200000, "fnv1a:926f0b84fe11f34c", "log-accounting=ok tbwf-progress=vacuous"},
		{"counter-atomic", 11, StrategyDLS, 200000, "fnv1a:607c3dd5d311df60", "log-accounting=ok tbwf-progress=vacuous"},
		{"counter-abortable", 3, StrategyWalk, 200000, "fnv1a:745ac389162dd142", "log-accounting=ok tbwf-progress=vacuous"},
		{"counter-abortable", 7, StrategyPBound, 200000, "fnv1a:e17762628092b231", "log-accounting=ok tbwf-progress=vacuous"},
		{"counter-abortable", 11, StrategyDLS, 200000, "fnv1a:7c20470619f66002", "log-accounting=ok tbwf-progress=vacuous"},
		{"omega-registers", 3, StrategyWalk, 200000, "fnv1a:ff431b7cb1e1c4b1", "omega-def5=vacuous"},
		{"omega-registers", 7, StrategyPBound, 200000, "fnv1a:be4f4bad0752ef85", "omega-def5=vacuous"},
		{"omega-registers", 11, StrategyDLS, 200000, "fnv1a:0aca11cac525da32", "omega-def5=vacuous"},
		{"omega-churn", 3, StrategyWalk, 200000, "fnv1a:d0cc0c6b9a043852", "omega-churn-stability=ok"},
		{"omega-churn", 7, StrategyPBound, 200000, "fnv1a:550a6f22d6fb2733", "omega-churn-stability=vacuous"},
		{"omega-churn", 11, StrategyPattern, 200000, "fnv1a:a2a4d98b178a4071", "omega-churn-stability=vacuous"},
		{"omega-churn-noselfpunish", 3, StrategyWalk, 200000, "fnv1a:6c8957f50df2322c", "omega-churn-stability=FAIL"},
		{"omega-churn-noselfpunish", 7, StrategyPBound, 200000, "fnv1a:083ef9cd9e0b9920", "omega-churn-stability=vacuous"},
		{"omega-churn-noselfpunish", 11, StrategyPattern, 200000, "fnv1a:628207af514b67b7", "omega-churn-stability=vacuous"},
		{"elector-atomic", 3, StrategyWalk, 200000, "fnv1a:a8d5836abaa8d28d", "elector-def5=vacuous"},
		{"elector-atomic", 7, StrategyPBound, 200000, "fnv1a:5fe42486e9d61cd6", "elector-def5=vacuous"},
		{"elector-atomic", 11, StrategyDLS, 200000, "fnv1a:98ae31ea4728e27b", "elector-def5=vacuous"},
		{"elector-abortable", 3, StrategyWalk, 200000, "fnv1a:b5099b2379ce285a", "elector-def5=ok"},
		{"elector-abortable", 7, StrategyPBound, 200000, "fnv1a:5c077eb8af911d3c", "elector-def5=vacuous"},
		{"elector-abortable", 11, StrategyDLS, 200000, "fnv1a:317cb0dc89aea5f8", "elector-def5=ok"},
		{"elector-nerio", 3, StrategyWalk, 200000, "fnv1a:b9975a7b6a662866", "elector-def5=ok"},
		{"elector-nerio", 7, StrategyPBound, 200000, "fnv1a:ac82980dac891b8e", "elector-def5=vacuous"},
		{"elector-nerio", 11, StrategyDLS, 200000, "fnv1a:57b21884d71c6e45", "elector-def5=ok"},
		{"elector-nerio-nodepose", 3, StrategyWalk, 200000, "fnv1a:0b883e6d59e00caf", "elector-def5=FAIL"},
		{"elector-nerio-nodepose", 7, StrategyPBound, 200000, "fnv1a:aaaa8e088ef74f78", "elector-def5=vacuous"},
		{"elector-nerio-nodepose", 11, StrategyDLS, 200000, "fnv1a:404f6a714eb81fa0", "elector-def5=FAIL"},
		{"elector-reputation", 3, StrategyWalk, 200000, "fnv1a:65d5cb1e7fbec7d3", "elector-def5=ok"},
		{"elector-reputation", 7, StrategyPBound, 200000, "fnv1a:52a40fd1b8ec0adb", "elector-def5=vacuous"},
		{"elector-reputation", 11, StrategyDLS, 200000, "fnv1a:8da863de5c9f1b33", "elector-def5=ok"},
		{"elector-reputation-churn", 3, StrategyWalk, 200000, "fnv1a:31b71cbe27c13415", "elector-churn-stability=ok"},
		{"elector-reputation-churn", 7, StrategyPBound, 200000, "fnv1a:b9cbba4bf2fa19db", "elector-churn-stability=vacuous"},
		{"elector-reputation-churn", 11, StrategyPattern, 200000, "fnv1a:13e16a276c9e41a4", "elector-churn-stability=vacuous"},
		{"elector-reputation-nopenalty", 3, StrategyWalk, 200000, "fnv1a:104e8f7a44b54168", "elector-churn-stability=FAIL"},
		{"elector-reputation-nopenalty", 7, StrategyPBound, 200000, "fnv1a:650c361dd56672f4", "elector-churn-stability=vacuous"},
		{"elector-reputation-nopenalty", 11, StrategyPattern, 200000, "fnv1a:4956fabc2b542dd5", "elector-churn-stability=vacuous"},
		{"heartbeat-dual", 3, StrategyWalk, 200000, "fnv1a:5eb65945d9c4bf70", "hb-suspects-slow-sender=ok"},
		{"heartbeat-dual", 7, StrategyPBound, 200000, "fnv1a:be80aedbe88a0aaf", "hb-suspects-slow-sender=ok"},
		{"heartbeat-dual", 11, StrategyDLS, 200000, "fnv1a:df7c641668568608", "hb-suspects-slow-sender=ok"},
		{"heartbeat-single", 3, StrategyWalk, 200000, "fnv1a:a8ba0a4be33b80f1", "hb-suspects-slow-sender=FAIL"},
		{"heartbeat-single", 7, StrategyPBound, 200000, "fnv1a:a42aa0a29b9cc500", "hb-suspects-slow-sender=FAIL"},
		{"heartbeat-single", 11, StrategyDLS, 200000, "fnv1a:27e188559edc45b7", "hb-suspects-slow-sender=ok"},
		{"messenger-backoff", 3, StrategyWalk, 200000, "fnv1a:d43f82030376ae0c", "messenger-delivery=ok"},
		{"messenger-backoff", 7, StrategyPBound, 200000, "fnv1a:f5d32f891fe523c6", "messenger-delivery=vacuous"},
		{"messenger-backoff", 11, StrategyDLS, 200000, "fnv1a:2bb33965196c2ddb", "messenger-delivery=ok"},
		{"messenger-nobackoff", 3, StrategyWalk, 200000, "fnv1a:f8d650b1bd10db2f", "messenger-delivery=ok"},
		{"messenger-nobackoff", 7, StrategyPBound, 200000, "fnv1a:f5d32f891fe523c6", "messenger-delivery=vacuous"},
		{"messenger-nobackoff", 11, StrategyDLS, 200000, "fnv1a:115510f694b34f05", "messenger-delivery=ok"},
		{"monitor-pair", 3, StrategyWalk, 200000, "fnv1a:c80b8b7a44aa0b4f", "monitor-5b=ok"},
		{"monitor-pair", 7, StrategyPBound, 200000, "fnv1a:ca7310c622ab97d9", "monitor-5b=ok"},
		{"monitor-pair", 11, StrategyDLS, 200000, "fnv1a:6bcfbc62fa973741", "monitor-5b=ok"},
		{"monitor-nogate", 3, StrategyWalk, 200000, "fnv1a:12c039ec80558c55", "monitor-5b=FAIL"},
		{"monitor-nogate", 7, StrategyPBound, 200000, "fnv1a:ca7310c622ab97d9", "monitor-5b=ok"},
		{"monitor-nogate", 11, StrategyDLS, 200000, "fnv1a:4c2ad0013177805e", "monitor-5b=FAIL"},
		{"selftest-panic", 3, StrategyWalk, 200000, "fnv1a:d193e94da4b36bc4", "no-panic=FAIL"},
		{"selftest-panic", 7, StrategyPBound, 200000, "fnv1a:3f2f3fa688cc5db4", "no-panic=FAIL"},
		{"selftest-panic", 11, StrategyDLS, 200000, "fnv1a:6eacac7b6764eb94", "no-panic=FAIL"},
		{"net/partition", 3, StrategyWalk, 200000, "fnv1a:c46c36e0dda03f3b", "lincheck=ok"},
		{"net/partition", 7, StrategyPBound, 200000, "fnv1a:3e201d8dff9fff10", "lincheck=ok"},
		{"net/partition", 11, StrategyDLS, 200000, "fnv1a:df0f58437185c791", "lincheck=ok"},
		{"net/reorder", 3, StrategyWalk, 200000, "fnv1a:9a83069674dcb1a9", "net-def5=ok"},
		{"net/reorder", 7, StrategyPBound, 200000, "fnv1a:17cff8ac6e1a6887", "net-def5=vacuous"},
		{"net/reorder", 11, StrategyDLS, 200000, "fnv1a:4f45f995377f6a67", "net-def5=ok"},
		{"net/partition-rq1", 3, StrategyWalk, 200000, "fnv1a:b3eb9c78783878c0", "lincheck=FAIL"},
		{"net/partition-rq1", 7, StrategyPBound, 200000, "fnv1a:3b60fadcec98389b", "lincheck=ok"},
		{"net/partition-rq1", 11, StrategyDLS, 200000, "fnv1a:3915b8007899d35a", "lincheck=ok"},
		{"serve/counter", 3, StrategyWalk, 200000, "fnv1a:666abaff290a50a4", "serve-fifo=ok serve-accounting=ok serve-lincheck=ok"},
		{"serve/counter", 7, StrategyPBound, 200000, "fnv1a:1b5cb01878bbb18c", "serve-fifo=ok serve-accounting=ok serve-lincheck=vacuous"},
		{"serve/counter", 11, StrategyDLS, 200000, "fnv1a:7bc5d244a642c43d", "serve-fifo=ok serve-accounting=ok serve-lincheck=ok"},
		{"serve/register", 3, StrategyWalk, 200000, "fnv1a:fe537883ce8e58ea", "serve-fifo=ok serve-accounting=ok serve-lincheck=ok"},
		{"serve/register", 7, StrategyPBound, 200000, "fnv1a:a2f0917171ad05a0", "serve-fifo=ok serve-accounting=ok serve-lincheck=vacuous"},
		{"serve/register", 11, StrategyDLS, 200000, "fnv1a:fa72a866f2557c31", "serve-fifo=ok serve-accounting=ok serve-lincheck=ok"},
		{"shard/kv", 3, StrategyWalk, 200000, "fnv1a:ac9d88c78047bdf9", "shard-fifo=ok shard-accounting=ok shard-lincheck=ok"},
		{"shard/kv", 7, StrategyPBound, 200000, "fnv1a:f0f7b7c9c662eb6e", "shard-fifo=ok shard-accounting=ok shard-lincheck=vacuous"},
		{"shard/kv", 11, StrategyDLS, 200000, "fnv1a:b7355ef379b33e64", "shard-fifo=ok shard-accounting=ok shard-lincheck=ok"},
		{"shard/kv-nobatchfence", 3, StrategyWalk, 200000, "fnv1a:ac9d88c78047bdf9", "shard-fifo=ok shard-accounting=ok shard-lincheck=FAIL"},
		{"shard/kv-nobatchfence", 7, StrategyPBound, 200000, "fnv1a:f0f7b7c9c662eb6e", "shard-fifo=ok shard-accounting=ok shard-lincheck=vacuous"},
		{"shard/kv-nobatchfence", 11, StrategyDLS, 200000, "fnv1a:b7355ef379b33e64", "shard-fifo=ok shard-accounting=ok shard-lincheck=FAIL"},
		{"frontier/monitor-adaptive", 3, StrategyDLS, 200000, "fnv1a:e027ffdf8d430b07", "monitor-frontier=ok"},
		{"frontier/monitor-adaptive", 7, StrategyDLS, 200000, "fnv1a:0142b5c6bc9eca99", "monitor-frontier=ok"},
		{"frontier/monitor-adaptive", 11, StrategyDLS, 200000, "fnv1a:9e7e09fec415a16c", "monitor-frontier=ok"},
		{"frontier/monitor-fixed", 3, StrategyDLS, 200000, "fnv1a:e027ffdf8d430b07", "monitor-frontier=ok"},
		{"frontier/monitor-fixed", 7, StrategyDLS, 200000, "fnv1a:0142b5c6bc9eca99", "monitor-frontier=FAIL"},
		{"frontier/monitor-fixed", 11, StrategyDLS, 200000, "fnv1a:9e7e09fec415a16c", "monitor-frontier=FAIL"},
		{"frontier/monitor-fixed-wide", 3, StrategyDLS, 200000, "fnv1a:e027ffdf8d430b07", "monitor-frontier=ok"},
		{"frontier/monitor-fixed-wide", 7, StrategyDLS, 200000, "fnv1a:0142b5c6bc9eca99", "monitor-frontier=FAIL"},
		{"frontier/monitor-fixed-wide", 11, StrategyDLS, 200000, "fnv1a:9e7e09fec415a16c", "monitor-frontier=ok"},
		{"counter-atomic", 3, StrategyWalk, 0, "fnv1a:9d83eaff7420d695", "log-accounting=ok tbwf-progress=ok"},
		{"counter-abortable", 3, StrategyWalk, 0, "fnv1a:8118a57e3f489ab3", "log-accounting=ok tbwf-progress=ok"},
		{"shard/kv-nobatchfence", 3, StrategyWalk, 0, "fnv1a:427254255278b712", "shard-fifo=ok shard-accounting=ok shard-lincheck=FAIL"},
		{"net/reorder", 3, StrategyDLS, 0, "fnv1a:8dd290ebc85ffc1e", "net-def5=ok"},
	}
	covered := map[string]int{}
	for _, c := range pins {
		if c.budget > 0 {
			covered[c.target]++
		}
		t.Run(fmt.Sprintf("%s/%s-%d@%d", c.target, c.strategy, c.seed, c.budget), func(t *testing.T) {
			if c.budget == 0 && testing.Short() {
				t.Skip("default-budget point")
			}
			t.Parallel()
			tgt, err := TargetByName(c.target)
			if err != nil {
				t.Fatal(err)
			}
			p := NewPlan(tgt, c.seed, c.budget)
			p.Strategy, p.DLS = c.strategy, nil
			if c.strategy == StrategyDLS {
				d := pinnedDLS[c.seed]
				p.DLS = &d
			}
			out, err := Execute(p)
			if err != nil {
				t.Fatal(err)
			}
			if out.TraceHash != c.hash {
				t.Errorf("trace hash %s, pinned %s", out.TraceHash, c.hash)
			}
			if got := verdictClasses(out.Verdicts); got != c.verdicts {
				t.Errorf("verdicts %q, pinned %q (%v)", got, c.verdicts, out.Verdicts)
			}
		})
	}
	for _, name := range TargetNames() {
		if covered[name] != 3 {
			t.Errorf("target %s has %d pinned points at the sweep budget, want 3", name, covered[name])
		}
	}
}

// verdictClasses renders what each oracle decided, without its wording.
func verdictClasses(vs []Verdict) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		class := "ok"
		switch {
		case !v.OK:
			class = "FAIL"
		case strings.HasPrefix(v.Detail, "vacuous:"):
			class = "vacuous"
		}
		parts[i] = v.Oracle + "=" + class
	}
	return strings.Join(parts, " ")
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
