package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
)

// The workload names are fixed: later issues cite them.
const (
	wlHTTP = "http-slow1"
	wlKV   = "kv-direct"
	wlNet  = "net-tcp"
	wlSim  = "sim-steps"
)

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wlHTTP, "tbwf-serve child over HTTP with one replica made untimely mid-run: the paper's claim as a service user sees it; serve, sockets and re-election do the work, shard does none"},
	{wlKV, "in-process shard.Map at a fixed open-loop rate, zipf keys, reads beside writes: admission, mpsc queues and batched qa rounds do the work; no HTTP, no sockets, no slow replica"},
	{wlNet, "ABD quorum registers over loopback TCP, closed loop: the only workload the net layer dominates; serve and shard do nothing"},
	{wlSim, "seeded sim kernel with one untimely process: sim, register, monitor, omega, qa and core alone; counts repeat exactly for a seed"},
}

// metricDef describes one metric of the catalogue. Bound is the share of
// the parent's median by which an end-to-end metric may get worse; layer
// metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Where lists the workloads whose traced run measures a layer metric;
	// on any other workload the layer is not on the path and the metric
	// reads 0. End-to-end metrics are measured on every workload.
	Where []string
	// What says how the harness takes the metric from outside.
	What string
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; README.md says what each means on each workload. The run
// contract allows one bound per metric and at most a quarter; net-tcp,
// which completes sixty operations in a run and reads 7–13 % apart on
// every metric, sets them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		What: "constructor or exec to the last warm-up op completed (net-tcp: to the first agreed leader), median of the run's seven set-ups, binary build excluded"},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		What: "median latency of the timely stream in the measured phase of each instance, median over the instances; open-loop latencies counted from each request's due time"},
	{Name: "p99_us", Unit: "us", Better: "lower", Bound: 0.25,
		What: "the same stream's p99 in each instance, median over the instances; under 1000 samples the highest percentile with ten samples beyond it"},
	{Name: "ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25,
		What: "completed, verified operations per second: closed-loop phase, or the whole run where the workload is closed-loop throughout"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "CPU time of the process hosting the stack over the measured phase, per op completed in it"},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.001,
		What: "succeeded-and-verified share of the timely stream's attempts; refusals, timeouts, transport errors and correctness violations all count against it"},
	{Name: "steps_per_op", Unit: "steps", Better: "lower", Bound: 0.25,
		What: "process steps per completed op: kernel steps on sim-steps (exact for a seed), rt step counters elsewhere"},
}

var (
	onHTTP  = []string{wlHTTP}
	onKV    = []string{wlKV}
	onNet   = []string{wlNet}
	onSim   = []string{wlSim}
	onRT    = []string{wlHTTP, wlKV, wlNet}
	onLoad  = []string{wlHTTP, wlKV}
	onStack = []string{wlHTTP, wlKV, wlNet, wlSim}
)

// perLayer is the outside-in layer budget: every metric is taken by the
// harness around exported API, named <module>.<what>.
var perLayer = []metricDef{
	{Name: "serve.http_overhead_p50_us", Unit: "us", Better: "lower", Where: onHTTP, What: "client round trip minus the latency_us the server returns, median"},
	{Name: "serve.http_overhead_p99_us", Unit: "us", Better: "lower", Where: onHTTP, What: "same, p99"},
	{Name: "serve.backend_p50_us", Unit: "us", Better: "lower", Where: onHTTP, What: "server-reported latency_us, median"},
	{Name: "serve.backend_p99_us", Unit: "us", Better: "lower", Where: onHTTP, What: "server-reported latency_us, p99"},
	{Name: "serve.handler_p50_us", Unit: "us", Better: "lower", Where: onHTTP, What: "in-process serve.New + ServeHTTP on a ResponseRecorder, no sockets"},
	{Name: "serve.codec_us", Unit: "us", Better: "lower", Where: onHTTP, What: "handler median minus backend median of the same in-process requests"},
	{Name: "serve.submit_ns", Unit: "ns", Better: "lower", Where: onHTTP, What: "Backend.Submit on serve.NewBackend(rt), mean"},
	{Name: "serve.steady_p50_us", Unit: "us", Better: "lower", Where: onHTTP, What: "timely stream before the injection, median"},
	{Name: "serve.steady_p99_us", Unit: "us", Better: "lower", Where: onHTTP, What: "timely stream before the injection, p99"},
	{Name: "serve.slow_probe_done", Unit: "count", Better: "higher", Where: onHTTP, What: "probe ops the slowed replica completed after the injection"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Where: onHTTP, What: "503 responses on any stream"},

	{Name: "shard.submit_ns", Unit: "ns", Better: "lower", Where: onKV, What: "span around Map.Submit, median"},
	{Name: "shard.wait_p50_us", Unit: "us", Better: "lower", Where: onKV, What: "Submit return to the result on Pending.Done, median"},
	{Name: "shard.mean_batch", Unit: "ops", Better: "higher", Where: onKV, What: "served / batches over the open-loop phase (Map.Stats deltas)"},
	{Name: "shard.batches_per_kop", Unit: "count", Better: "lower", Where: onKV, What: "qa rounds per 1000 served ops"},
	{Name: "shard.shed_ratio", Unit: "ratio", Better: "lower", Where: onKV, What: "shed submissions / submissions"},
	{Name: "mpsc.push_pop_ns", Unit: "ns", Better: "lower", Where: onKV, What: "mpsc.New(256), G producers, drained in batches of 32, per item"},

	{Name: "core.invoke_p50_us", Unit: "us", Better: "lower", Where: onStack, What: "harness-side Figure 7 client, span around one invocation, median"},
	{Name: "core.leader_wait_p50_us", Unit: "us", Better: "lower", Where: onStack, What: "canonical wait plus wait-to-lead of the same invocations, median"},
	{Name: "core.leader_wait_share", Unit: "ratio", Better: "lower", Where: onStack, What: "total leader-wait time / total invocation time"},
	{Name: "core.trace_overhead_ratio", Unit: "ratio", Better: "higher", Where: onStack, What: "traced Figure 7 client ops/s / core.Client.Invoke ops/s on the same set-up"},
	{Name: "core.aborts_per_op", Unit: "count", Better: "lower", Where: onStack, What: "core.Stats deltas: bottom outcomes per completed op"},
	{Name: "core.queries_per_op", Unit: "count", Better: "lower", Where: onStack, What: "core.Stats deltas: qa queries per completed op"},
	{Name: "core.invokes_per_op", Unit: "count", Better: "lower", Where: onStack, What: "core.Stats deltas: qa invokes per completed op"},

	{Name: "qa.invoke_solo_ns", Unit: "ns", Better: "lower", Where: onRT, What: "uncontended Handle.Invoke on rt, mean"},
	{Name: "qa.proposals_per_op", Unit: "count", Better: "lower", Where: onStack, What: "HandleStats deltas: proposals per completed op"},
	{Name: "qa.replays_per_op", Unit: "count", Better: "lower", Where: onStack, What: "HandleStats deltas: log slots replayed per completed op"},
	{Name: "qa.slots_allocated", Unit: "count", Better: "lower", Where: onStack, What: "qa log slots constructed by the end of the run"},

	{Name: "elector.stabilize_ms.atomic", Unit: "ms", Better: "lower", Where: onRT, What: "deploy.Build on rt.New(3), all candidates on, until Leaders() agree"},
	{Name: "elector.stabilize_ms.abortable", Unit: "ms", Better: "lower", Where: onRT, What: "same, abortable-registers elector"},
	{Name: "elector.stabilize_ms.nerio", Unit: "ms", Better: "lower", Where: onRT, What: "same, nerio elector"},
	{Name: "elector.stabilize_ms.reputation", Unit: "ms", Better: "lower", Where: onRT, What: "same, reputation elector"},
	{Name: "elector.reelect_ms", Unit: "ms", Better: "lower", Where: onRT, What: "SetProfile the current leader slow until every timely output differs from it"},
	{Name: "elector.stall_ms", Unit: "ms", Better: "lower", Where: onHTTP, What: "longest gap between timely completions after the injection"},
	{Name: "elector.leader_changes_per_s", Unit: "1/s", Better: "lower", Where: onRT, What: "Leaders() sampled each ms on a stable stack"},
	{Name: "monitor.fault_detect_ms", Unit: "ms", Better: "lower", Where: onRT, What: "slowing a process until the first FaultMatrix increment against it"},

	{Name: "rt.step_ns", Unit: "ns", Better: "lower", Where: onRT, What: "a spawned task timing Proc.Step, mean"},
	{Name: "rt.reg_read_ns", Unit: "ns", Better: "lower", Where: onRT, What: "prim.NewRegister read, mean"},
	{Name: "rt.reg_write_ns", Unit: "ns", Better: "lower", Where: onRT, What: "prim.NewRegister write, mean"},
	{Name: "rt.abortable_write_ns", Unit: "ns", Better: "lower", Where: onRT, What: "prim.NewAbortable write, mean"},
	{Name: "rt.steps_per_op", Unit: "steps", Better: "lower", Where: onRT, What: "ProcStats step deltas / ops over the measured phase"},
	{Name: "rt.idle_steps_per_s", Unit: "1/s", Better: "lower", Where: onRT, What: "ProcStats step deltas with workers started and no load"},
	{Name: "rt.max_gap_timely_ms", Unit: "ms", Better: "lower", Where: onRT, What: "largest step gap of the timely processes (ProcStats, /v1/metrics)"},

	{Name: "net.tcp_read_us", Unit: "us", Better: "lower", Where: onNet, What: "atomic register read on the TCP substrate from the harness goroutine, median"},
	{Name: "net.tcp_write_us", Unit: "us", Better: "lower", Where: onNet, What: "same, write"},
	{Name: "net.msgs_per_op", Unit: "count", Better: "lower", Where: onNet, What: "TCP.Sent delta / completed ops"},
	{Name: "net.dropped_ratio", Unit: "ratio", Better: "lower", Where: onNet, What: "TCP.Dropped delta / TCP.Sent delta"},
	{Name: "net.fabric_steps_per_regop", Unit: "steps", Better: "lower", Where: onNet, What: "register ops on net.NewFabric over a sim kernel, delay 1, exact"},

	{Name: "sim.steps_per_s", Unit: "1/s", Better: "higher", Where: onSim, What: "Kernel.Stats steps / time inside Run"},
	{Name: "sim.handoffs_per_step", Unit: "ratio", Better: "lower", Where: onSim, What: "Kernel.Stats goroutine handoffs / steps"},
	{Name: "register.ops_per_invoke", Unit: "count", Better: "lower", Where: onSim, What: "sim register operations / completed ops, exact"},
	{Name: "register.abort_ratio", Unit: "ratio", Better: "lower", Where: onSim, What: "aborted / issued register operations, exact"},

	{Name: "deploy.build_ms", Unit: "ms", Better: "lower", Where: onRT, What: "deploy.Build of a counter on rt.New(3), median"},
	{Name: "telemetry.record_ns", Unit: "ns", Better: "lower", Where: onHTTP, What: "Histogram.Record, mean"},

	{Name: "host.gen_late_p99_us", Unit: "us", Better: "lower", Where: onLoad, What: "how late the open-loop generator sent against its schedule, p99"},
	{Name: "host.peak_rss_mb", Unit: "MiB", Better: "lower", Where: onStack, What: "VmHWM of the process hosting the stack"},
	{Name: "host.traced_p50_us", Unit: "us", Better: "lower", Where: onStack, What: "the traced run's own end-to-end p50; against the untraced p50_us it is the tracing overhead"},
	{Name: "host.budget_gap_ratio", Unit: "ratio", Better: "lower", Where: onStack, What: "|sum of median self times - traced p50| / traced p50: what the layer budget leaves unexplained"},
}

// genLateGateUS is the validity gate on the open-loop generator: an
// instance whose p99 send lateness exceeds it is invalid, not slow — its
// latencies, counted from the due time, include that much of the
// generator's own delay — and is run again. The gate sits above what a
// wake-up costs beside a server that keeps every core busy (one scheduler
// slice: 1.8–2.9 ms on http-slow1, under 1.2 ms on kv-direct) and far
// below a host stall (100 ms and more, some one instance in ten).
const genLateGateUS = 5000

// gateGenerator applies the gate to an instance's p99 generator lateness.
func (o *outcome) gateGenerator(workload string, lateP99US float64) {
	if lateP99US > genLateGateUS {
		o.invalid = fmt.Sprintf("%s: generator p99 lateness %.0f us is over the %d us gate", workload, lateP99US, genLateGateUS)
	}
}

func (d metricDef) measuredOn(workload string) bool { return slices.Contains(d.Where, workload) }

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the object a run prints as its last line of output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// sample is what one instance of a workload measured, before it is folded
// into the run's end-to-end metrics.
type sample struct {
	setupS float64
	// lat is the timely stream's latencies in the measured phase, µs.
	lat []float64
	// ops completed in opsSeconds of closed loop; cpuMS spent while cpuOps
	// completed; steps taken while stepOps completed.
	ops, opsSeconds float64
	cpuMS, cpuOps   float64
	steps, stepOps  float64
}

// outcome is what an instance of a workload hands back — counts, the
// correctness violations it found, its sample, and its layer metrics by
// name — and, once combine has folded a run's instances, the run's
// end-to-end metrics.
type outcome struct {
	attempted  int64
	failed     int64
	violations []string
	raw        sample
	e2e        map[string]float64
	layer      map[string]float64
	// notes are printed to stderr: context a reader of the numbers needs
	// (sample counts, a generator that ran late).
	notes []string
	// exactSteps marks steps_per_op as a count that must repeat exactly
	// for a seed (sim-steps).
	exactSteps bool
	// invalid, when not empty, says why the instance measured the harness
	// and not the system (the open-loop generator ran late); runOne
	// replaces such an instance.
	invalid string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) violate(format string, args ...any) {
	// A broken run can violate per op; the first few say what happened.
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result renders an outcome as the run's result object: the end-to-end
// metrics of an untraced run, the layer metrics of a traced one. A metric
// the workload did not produce is an error for an end-to-end metric and
// for a layer metric measured on this workload; a layer that is not on
// the workload's path reads 0.
func (o *outcome) result(workload string, traced bool) (runResult, error) {
	res := runResult{
		Correct:   len(o.violations) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	defs, values := endToEnd, o.e2e
	if traced {
		defs, values = perLayer, o.layer
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && (!traced || d.measuredOn(workload)) {
			return res, fmt.Errorf("workload %s did not produce metric %s", workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("workload %s: metric %s is %v", workload, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("workload %s produced metric %s, which the catalogue does not list", workload, name)
		}
	}
	return res, nil
}

// benchmarkFile is BENCHMARK.json at the repository root; the test checks
// it against the catalogue above.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadDef   `json:"workloads"`
	EndToEnd   []benchmarkE2E  `json:"end_to_end"`
	PerLayer   []benchmarkItem `json:"per_layer"`
}

type benchmarkItem struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSeconds is the measured length of one run under BENCHMARK.json.
const runSeconds = 24

// benchmarkJSON renders the catalogue as BENCHMARK.json (`-manifest`
// prints it, so the file is generated, not hand-kept).
func benchmarkJSON() ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, benchmarkE2E{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, benchmarkItem{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// sortedNames returns the keys of a metric map in name order.
func sortedNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
