package main

import (
	"fmt"
	"runtime"
	"time"

	"tbwf/internal/core"
	"tbwf/internal/deploy"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/sim"
)

// sim-steps: four processes on the seeded simulation kernel, process 0
// untimely (growing gaps), one task per process hammering a TBWF counter.
// It is the experimenter's and the fuzzer's view of the system, and the
// one workload whose counts repeat exactly for a seed.
const (
	simProcs = 4
	// simStepsPerSecond sizes the exact prefix: the first seconds ×
	// simStepsPerSecond kernel steps of a run are what steps_per_op and
	// the register counts are taken over, however fast the host is. The
	// run then goes on until its time is up, for the timed metrics.
	simStepsPerSecond = 200_000
	simWarmupOps      = 100
	// simTimelyBound separates the timely processes from the untimely one
	// in the analyzer's verdict: under the seeded random schedule a timely
	// process's observed bound stays in the tens, process 0's first gap is
	// already 600 steps.
	simTimelyBound = 256
)

type simOp struct {
	proc   int
	prev   int64
	step   int64 // kernel step at completion
	wallUS float64
}

// simStack is one deployment of the workload.
type simStack struct {
	k      *sim.Kernel
	st     *counterStack
	fig7   []*fig7Client[int64, objtype.CounterOp, int64] // nil unless the harness-side client drives
	ops    []simOp
	stop   bool
	exited [simProcs]bool
}

func simSchedule(seed int64) sim.Schedule {
	return sim.Restrict(sim.Random(seed, nil), map[int]sim.Availability{0: sim.GrowingGaps(400, 600, 1.5)})
}

// newSimStack builds the kernel, the counter stack and the hammer tasks.
// With useFig7 the harness-side Figure 7 client drives the operations
// (spans go to rec when it is not nil); otherwise core.Client.Invoke does.
func newSimStack(seed int64, scheduleTrace, useFig7 bool, rec *recorder) (*simStack, error) {
	s := &simStack{k: sim.New(simProcs, sim.WithSchedule(simSchedule(seed)), sim.WithScheduleTrace(scheduleTrace))}
	st, err := deploy.Build[int64, objtype.CounterOp, int64](deploy.Sim(s.k), objtype.Counter{}, deploy.BuildConfig{})
	if err != nil {
		return nil, fmt.Errorf("sim-steps: %w", err)
	}
	s.st = st
	for p := 0; p < simProcs; p++ {
		p := p
		invoke := func(pp prim.Proc, n int64) int64 {
			return st.Clients[p].Invoke(pp, objtype.CounterOp{Delta: 1})
		}
		if useFig7 {
			c := newFig7(st.Instances[p], st.Object.Handle(p), rec.buf())
			s.fig7 = append(s.fig7, c)
			invoke = func(pp prim.Proc, n int64) int64 {
				return c.invoke(pp, objtype.CounterOp{Delta: 1}, int64(p)<<40|n)
			}
		}
		s.k.Spawn(p, fmt.Sprintf("hammer[%d]", p), func(pp prim.Proc) {
			defer func() { s.exited[p] = true }()
			for n := int64(0); !s.stop; n++ {
				t0 := time.Now()
				prev := invoke(pp, n)
				s.ops = append(s.ops, simOp{proc: p, prev: prev, step: s.k.Step(), wallUS: usOf(time.Since(t0))})
			}
		})
	}
	return s, nil
}

// runTo extends the run to the given total step count.
func (s *simStack) runTo(total int64) error {
	if d := total - s.k.Step(); d > 0 {
		if _, err := s.k.Run(d); err != nil {
			return err
		}
	}
	return nil
}

// warmUp runs until simWarmupOps operations have completed.
func (s *simStack) warmUp() error {
	for len(s.ops) < simWarmupOps {
		if _, err := s.k.Run(20_000); err != nil {
			return err
		}
	}
	return nil
}

// completedBy counts the ops completed by the given kernel step.
func (s *simStack) completedBy(step int64) (total int64) {
	for _, op := range s.ops {
		if op.step <= step {
			total++
		}
	}
	return total
}

func runSimSteps(cfg runConfig, rec *recorder) (*outcome, error) {
	o := newOutcome()
	// The kernel runs one task at a time and hands the turn from goroutine
	// to goroutine. On one P every handoff stays on one thread; on two, some
	// cross to the other thread, and how many depends on the host's mood:
	// the same commit read 990 ops/s in one set of ten runs and 740 in the
	// next. An experiment sweep runs one kernel per core anyway.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prefix := int64(cfg.seconds * simStepsPerSecond)

	// Set-up: constructor to the 100th completed op.
	t0 := time.Now()
	s, err := newSimStack(cfg.seed, false, cfg.traced, rec)
	if err != nil {
		return nil, err
	}
	defer s.k.Shutdown()
	if err := s.warmUp(); err != nil {
		return nil, err
	}
	o.raw.setupS = time.Since(t0).Seconds()
	if cfg.setupOnly {
		return o, nil
	}

	// The measured run: the exact prefix first, then on until time is up.
	warmOps := len(s.ops)
	start, cpu0 := time.Now(), selfCPU()
	if err := s.runTo(prefix); err != nil {
		return nil, err
	}
	prefixStats, m := s.k.Stats(), s.k.Metrics()
	prefixRegOps, prefixAborts := m.TotalOps(), m.TotalAborts()
	for time.Since(start).Seconds() < cfg.seconds {
		if _, err := s.k.Run(250_000); err != nil {
			return nil, err
		}
	}
	elapsed, cpu := time.Since(start), selfCPU()-cpu0
	stats := s.k.Stats()
	measured := s.ops[warmOps:]

	// Let the timely hammers finish their current op, then read the
	// counter. Process 0 may be deep in a gap; its in-flight op stays
	// unacknowledged.
	s.stop = true
	for !(s.exited[1] && s.exited[2] && s.exited[3]) {
		if _, err := s.k.Run(20_000); err != nil {
			return nil, err
		}
	}
	final, readDone := int64(-1), false
	s.k.Spawn(1, "final-read", func(pp prim.Proc) {
		final = s.st.Clients[1].Invoke(pp, objtype.CounterOp{})
		readDone = true
	})
	for !readDone {
		if _, err := s.k.Run(20_000); err != nil {
			return nil, err
		}
	}

	// Correctness.
	prevs := make([]int64, len(s.ops))
	perProcPrevs := make([][]int64, simProcs)
	for i, op := range s.ops {
		prevs[i] = op.prev
		perProcPrevs[op.proc] = append(perProcPrevs[op.proc], op.prev)
	}
	unacked := int64(0)
	if !s.exited[0] {
		unacked = 1
	}
	bad := checkCounterChain(o, "counter", prevs, final, unacked)
	for p, pp := range perProcPrevs {
		bad += checkMonotone(o, fmt.Sprintf("process %d", p), pp)
	}
	for q := int64(1); q <= 4; q++ {
		lo, hi := prefix*(q-1)/4, prefix*q/4
		var n [simProcs]int64
		for _, op := range s.ops {
			if op.step > lo && op.step <= hi {
				n[op.proc]++
			}
		}
		for p := 1; p < simProcs; p++ {
			if n[p] == 0 {
				o.violate("timely process %d completed nothing in quarter %d of the first %d steps", p, q, prefix)
				bad++
			}
		}
	}
	if cfg.instance == 0 { // a property of the seed, not of the instance
		if err := checkSimTBWF(o, cfg); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		ratio, err := checkFig7AgainstCore(o, cfg, s, prefix, prefixStats.Elapsed)
		if err != nil {
			return nil, err
		}
		o.layer["core.trace_overhead_ratio"] = ratio
	}

	// End-to-end metrics. The timely stream is processes 1-3.
	var lat []float64
	done := int64(0)
	for _, op := range measured {
		done++
		if op.proc != 0 {
			lat = append(lat, op.wallUS)
		}
	}
	o.attempted = int64(len(s.ops)) + unacked
	o.failed = min(bad, o.attempted)
	prefixOps := s.completedBy(prefix)
	if prefixOps == 0 || done == 0 || len(lat) == 0 {
		return nil, fmt.Errorf("sim-steps: no operations completed")
	}
	o.raw.lat = lat
	o.raw.ops, o.raw.opsSeconds = float64(done), elapsed.Seconds()
	o.raw.cpuMS, o.raw.cpuOps = float64(cpu)/1e6, float64(done)
	o.raw.steps, o.raw.stepOps = float64(prefix), float64(prefixOps)
	o.exactSteps = true
	o.note("sim-steps: %d ops in the first %d steps, %d timely latency samples, %.0f steps/s",
		prefixOps, prefix, len(lat), stats.StepsPerSec())

	// Layer metrics.
	o.layer["sim.steps_per_s"] = stats.StepsPerSec()
	o.layer["sim.handoffs_per_step"] = float64(stats.Handoffs) / float64(stats.Steps)
	o.layer["register.ops_per_invoke"] = float64(prefixRegOps) / float64(prefixOps)
	o.layer["register.abort_ratio"] = float64(prefixAborts) / float64(prefixRegOps)
	setCoreCounters(o, s.st, s.fig7, 1)
	o.layer["qa.slots_allocated"] = float64(s.st.Object.SlotsAllocated())
	o.layer["host.peak_rss_mb"] = peakRSSMB(0)
	if cfg.traced {
		spans := rec.all()
		o.layer["core.invoke_p50_us"], o.layer["core.leader_wait_p50_us"], o.layer["core.leader_wait_share"] = fig7Shares(spans)
		setBudget(o, spans, spanInvoke)
	}
	return o, nil
}

// counterStack is the TBWF counter every workload but kv-direct deploys.
type counterStack = deploy.Stack[int64, objtype.CounterOp, int64]

// setCoreCounters reports the useful-outcomes-per-attempt counters of the
// core and qa layers, summed over a stack's processes: the clients'
// core.Stats (the harness's Figure 7 clients' own, where they drove the
// operations) and the handles' qa.HandleStats. share is the part of the
// handles' work that belongs to those clients (1 unless others also drove
// the stack).
func setCoreCounters(o *outcome, st *counterStack, fig7 []*fig7Client[int64, objtype.CounterOp, int64], share float64) {
	var cs core.Stats
	var proposals, replays int64
	for p := range st.Clients {
		c := st.Clients[p].Stats()
		if fig7 != nil {
			c = fig7[p].stats
		}
		cs.Completed += c.Completed
		cs.Invokes += c.Invokes
		cs.Queries += c.Queries
		cs.Aborts += c.Aborts
		h := st.Object.Handle(p).Stats()
		proposals += h.Proposals + h.NopProposals
		replays += h.SlotsReplayed
	}
	done := float64(max(cs.Completed, 1))
	o.layer["core.aborts_per_op"] = float64(cs.Aborts) / done
	o.layer["core.queries_per_op"] = float64(cs.Queries) / done
	o.layer["core.invokes_per_op"] = float64(cs.Invokes) / done
	o.layer["qa.proposals_per_op"] = share * float64(proposals) / done
	o.layer["qa.replays_per_op"] = share * float64(replays) / done
}

// setBudget reports how the traced run's layer budget reconciles with its
// own end-to-end median.
func setBudget(o *outcome, spans []span, root string) layerBudget {
	b := budget(spans, root)
	o.layer["host.traced_p50_us"] = b.RootP50US
	if b.RootP50US > 0 {
		gap := b.SumUS - b.RootP50US
		if gap < 0 {
			gap = -gap
		}
		o.layer["host.budget_gap_ratio"] = gap / b.RootP50US
	} else {
		o.layer["host.budget_gap_ratio"] = 0
	}
	o.note("layer budget over %d requests (median self time, us): %v; sum %.1f against traced p50 %.1f",
		b.Requests, b.SelfP50US, b.SumUS, b.RootP50US)
	return b
}

// checkSimTBWF re-runs the seed's first steps with the schedule recorded
// and asks core's progress checker for its verdict: processes 1-3 must be
// observed timely, process 0 not, and every timely process must have made
// progress (Definition 3's finite reading).
func checkSimTBWF(o *outcome, cfg runConfig) error {
	steps := max(int64(1_000_000*cfg.scale), 200_000)
	s, err := newSimStack(cfg.seed, true, false, nil)
	if err != nil {
		return err
	}
	defer s.k.Shutdown()
	if err := s.runTo(steps); err != nil {
		return err
	}
	rep, err := s.k.Trace().Analyze()
	if err != nil {
		return fmt.Errorf("sim-steps: %w", err)
	}
	wanted := make([]int64, simProcs)
	for p := range wanted {
		wanted[p] = 4
	}
	verdict, err := core.Evaluate(rep, s.st.CompletedOps(), wanted, simTimelyBound)
	if err != nil {
		return fmt.Errorf("sim-steps: %w", err)
	}
	for _, p := range verdict.Procs {
		if p.Timely != (p.Proc != 0) {
			o.violate("process %d observed bound %d: timely=%v, the schedule should make exactly 1-3 timely", p.Proc, p.Bound, p.Timely)
		}
	}
	if !verdict.TBWFHolds() {
		o.violate("TBWF does not hold over the first %d steps: timely processes %v fell short\n%s", steps, verdict.Violations(), verdict)
	}
	return nil
}

// checkFig7AgainstCore runs the seed's prefix again with core.Client
// driving, and requires the harness-side Figure 7 client of the traced run
// to have produced the same history step for step. It returns traced ops/s
// over core.Client ops/s — the tracing overhead, reported and not folded
// into a layer.
func checkFig7AgainstCore(o *outcome, cfg runConfig, traced *simStack, prefix int64, tracedElapsed time.Duration) (float64, error) {
	ref, err := newSimStack(cfg.seed, false, false, nil)
	if err != nil {
		return 0, err
	}
	defer ref.k.Shutdown()
	if err := ref.runTo(prefix); err != nil {
		return 0, err
	}
	refElapsed := ref.k.Stats().Elapsed
	i := 0
	for ; i < len(ref.ops) && ref.ops[i].step <= prefix; i++ {
		if i >= len(traced.ops) || traced.ops[i].proc != ref.ops[i].proc ||
			traced.ops[i].prev != ref.ops[i].prev || traced.ops[i].step != ref.ops[i].step {
			o.violate("harness Figure 7 client diverges from core.Client.Invoke at op %d of seed %d", i, cfg.seed)
			break
		}
	}
	if tracedElapsed <= 0 {
		return 0, nil
	}
	return refElapsed.Seconds() / tracedElapsed.Seconds(), nil
}
