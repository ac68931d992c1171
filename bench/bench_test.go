package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tbwf/internal/shard"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// testConfig runs a workload at a thirtieth of its length: three
// instances of 0.27 s untraced (naming the count also leaves out the
// set-up-only cycles of a full run), one traced. sim-steps gets three times as
// long: its progress checks ask every timely process for an op in each
// quarter of an instance's exact prefix, which needs a prefix of some
// hundred thousand steps to be a fair question. So does http-slow1, whose
// closed loop is a sixth of an instance and must complete something even
// beside the other workloads' spinning processes.
func testConfig(t *testing.T, workload string, traced bool) runConfig {
	cfg := runConfig{
		workload: workload, seed: 7, seconds: float64(runSeconds) / 30, traced: traced,
		scale: 1.0 / 30, outDir: t.TempDir(), generators: defaultGenerators(),
		instances: 3,
	}
	switch workload {
	case wlSim, wlHTTP:
		cfg.seconds *= 3
	case wlNet:
		// One quorum-register op takes most of a second: one instance of
		// 3 s (a traced run is a third of its length), long enough to
		// complete a few.
		cfg.seconds, cfg.instances = 3, 1
		if traced {
			cfg.seconds = 9
		}
	}
	return cfg
}

// checkMetrics asserts the run emitted exactly the catalogue's metrics,
// each finite and with its unit.
func checkMetrics(t *testing.T, res runResult, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, catalogue lists %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
}

func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if w.Name != wlSim { // sim-steps sets GOMAXPROCS and runs alone
				t.Parallel()
			}
			res, o, err := runOne(testConfig(t, w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range o.violations {
				t.Errorf("violation: %s", v)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; they are chosen never to be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}

			cfg := testConfig(t, w.Name, true)
			res, o, err = runOne(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range o.violations {
				t.Errorf("violation (traced): %s", v)
			}
			checkMetrics(t, res, perLayer)
			for _, d := range perLayer {
				if !d.measuredOn(w.Name) && res.Metrics[d.Name].Value != 0 {
					t.Errorf("%s reads %v on %s, where its layer is not on the path", d.Name, res.Metrics[d.Name].Value, w.Name)
				}
			}
			spans, err := readTrace(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			if err := checkNesting(spans); err != nil {
				t.Errorf("trace does not nest: %v", err)
			}
		})
	}
}

// steps_per_op is a count: it must repeat bit for bit for a seed, and the
// harness's Figure 7 client must take exactly core.Client.Invoke's steps
// (checkFig7AgainstCore runs inside every traced sim-steps run; this is
// the same comparison with tracing off, over a prefix of its own).
func TestSimStepsExact(t *testing.T) {
	cfg := testConfig(t, wlSim, false)
	var got [2]float64
	for i := range got {
		res, _, err := runOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = res.Metrics["steps_per_op"].Value
	}
	if got[0] != got[1] {
		t.Errorf("steps_per_op %v then %v for one seed", got[0], got[1])
	}

	const prefix = 300_000
	fig7, err := newSimStack(cfg.seed, false, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fig7.k.Shutdown()
	if err := fig7.runTo(prefix); err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	if _, err := checkFig7AgainstCore(o, cfg, fig7, prefix, 1); err != nil {
		t.Fatal(err)
	}
	for _, v := range o.violations {
		t.Error(v)
	}
	if len(fig7.ops) < 50 {
		t.Errorf("only %d ops compared", len(fig7.ops))
	}
}

// BENCHMARK.json is generated from the catalogue; the committed file must
// be the generated one, and every name must fit the contract.
func TestManifest(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
	var f benchmarkFile
	if err := json.Unmarshal(got, &f); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not fit the contract", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range f.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range f.PerLayer {
		check(m.Name)
	}
	if len(f.Workloads) != 4 || len(f.EndToEnd) != 7 || len(f.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d layer metrics", len(f.Workloads), len(f.EndToEnd), len(f.PerLayer))
	}
	for _, p := range probes {
		for _, w := range p.where {
			if _, ok := runners[w]; !ok {
				t.Errorf("probe names unknown workload %q", w)
			}
		}
	}
}

// The correctness checks must have teeth: each kind of broken history is
// reported.
func TestChecksCatchBrokenHistories(t *testing.T) {
	bad := func(name string, f func(o *outcome) int64) {
		o := newOutcome()
		if n := f(o); n == 0 || len(o.violations) == 0 {
			t.Errorf("%s: not caught (bad=%d, violations %v)", name, n, o.violations)
		}
	}
	good := func(name string, f func(o *outcome) int64) {
		o := newOutcome()
		if n := f(o); n != 0 || len(o.violations) != 0 {
			t.Errorf("%s: flagged a valid history (bad=%d, violations %v)", name, n, o.violations)
		}
	}
	good("chain", func(o *outcome) int64 { return checkCounterChain(o, "c", []int64{2, 0, 1}, 3, 0) })
	good("chain with an unacknowledged add", func(o *outcome) int64 { return checkCounterChain(o, "c", []int64{0, 2}, 3, 1) })
	bad("duplicate prev", func(o *outcome) int64 { return checkCounterChain(o, "c", []int64{0, 1, 1}, 3, 0) })
	bad("gap", func(o *outcome) int64 { return checkCounterChain(o, "c", []int64{0, 2}, 3, 0) })
	bad("prev beyond the final read", func(o *outcome) int64 { return checkCounterChain(o, "c", []int64{0, 1, 5}, 3, 0) })
	bad("order on one connection", func(o *outcome) int64 { return checkMonotone(o, "c", []int64{0, 2, 1}) })

	add := func(key int, delta, prev, inv, resp int64) kvOp {
		return kvOp{key: key, kind: shard.Add, val: delta, resp: shard.Resp{Prev: prev}, invoke: inv, response: resp}
	}
	get := func(key int, prev, inv, resp int64) kvOp {
		return kvOp{key: key, kind: shard.Get, resp: shard.Resp{Prev: prev}, invoke: inv, response: resp}
	}
	cas := func(key int, old, prev int64, swapped bool, inv, resp int64) kvOp {
		return kvOp{key: key, kind: shard.CAS, old: old, val: old + 1, resp: shard.Resp{Prev: prev, Swapped: swapped}, invoke: inv, response: resp}
	}
	good("kv history", func(o *outcome) int64 {
		return checkKV(o, []kvOp{add(1, 2, 0, 0, 10), get(1, 2, 11, 20), cas(1, 2, 2, true, 21, 30), cas(1, 2, 3, false, 31, 40), add(1, 1, 3, 41, 50), get(2, 0, 0, 5)})
	})
	good("overlapping ops in either order", func(o *outcome) int64 {
		return checkKV(o, []kvOp{add(1, 1, 1, 0, 10), add(1, 1, 0, 0, 10), get(1, 1, 0, 10)})
	})
	bad("broken add chain", func(o *outcome) int64 { return checkKV(o, []kvOp{add(1, 2, 0, 0, 10), add(1, 1, 3, 11, 20)}) })
	bad("read of a value never held", func(o *outcome) int64 { return checkKV(o, []kvOp{add(1, 2, 0, 0, 10), get(1, 1, 11, 20)}) })
	bad("stale read", func(o *outcome) int64 { return checkKV(o, []kvOp{add(1, 2, 0, 0, 10), get(1, 0, 11, 20)}) })
	bad("mutation order against real time", func(o *outcome) int64 {
		return checkKV(o, []kvOp{add(1, 1, 1, 0, 10), add(1, 1, 0, 11, 20)})
	})
	bad("cas that lies about swapping", func(o *outcome) int64 { return checkKV(o, []kvOp{cas(1, 0, 0, false, 0, 10)}) })
}

func TestSpanAccounting(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 30, End: 60}, // overlaps a by 10
		{ID: 4, Parent: 3, Req: 1, Name: "c", Start: 35, End: 45},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 30, 3: 20, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d is %d, want %d", id, self[id], want)
		}
	}
	b := budget(spans, "request")
	if b.Requests != 1 || b.RootP50US != 0.1 || math.Abs(b.SumUS-0.11) > 1e-9 {
		t.Errorf("budget %+v", b)
	}
	for _, broken := range [][]span{
		{{ID: 1, Req: 1, Name: "r", Start: 0, End: 10}, {ID: 2, Parent: 1, Req: 1, Name: "x", Start: 5, End: 11}},
		{{ID: 1, Req: 1, Name: "r", Start: 0, End: 10}, {ID: 2, Parent: 9, Req: 1, Name: "x", Start: 5, End: 6}},
		{{ID: 1, Req: 1, Name: "r", Start: 0, End: 10}, {ID: 2, Parent: 1, Req: 2, Name: "x", Start: 5, End: 6}},
	} {
		if checkNesting(broken) == nil {
			t.Errorf("nesting check passed %v", broken)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v; want 2.75, 8.25", q1, q3)
	}
	lower := metricDef{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	loose := func(c float64) []float64 { return []float64{c * 0.7, c * 0.9, c, c * 1.1, c * 1.3} }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(100), "ok"},
		{"slower within the bound", lower, tight(100), tight(108), "ok"},
		{"slower beyond the bound", lower, tight(100), tight(120), "BREACH"},
		{"faster", lower, tight(100), tight(50), "ok"},
		{"throughput down", higher, tight(100), tight(80), "BREACH"},
		{"throughput up", higher, tight(100), tight(130), "ok"},
		{"noisy and worse", lower, loose(100), loose(115), "unresolved"},
		{"noisy and the same", lower, loose(100), loose(100), "unresolved"},
		{"noisy but every run worse", lower, loose(100), loose(300), "BREACH"},
		{"noisy but every run better", lower, loose(100), loose(30), "ok"},
	} {
		if _, _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			res := runResult{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				res.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
			}
			res.Metrics["p50_us"] = metricValue{Value: p50, Unit: "us"}
			if err := appendRecord(path, setRecord{Workload: w.Name, Seed: 1, Result: res}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, worse := write("a.jsonl", 100), write("same.jsonl", 101), write("worse.jsonl", 150)
	var out bytes.Buffer
	if breach, err := compareSets(&out, a, same); err != nil || breach {
		t.Errorf("equal sets: breach=%v err=%v\n%s", breach, err, out.String())
	}
	if breach, err := compareSets(&out, a, worse); err != nil || !breach {
		t.Errorf("p50 +50%%: breach=%v err=%v\n%s", breach, err, out.String())
	}
}
