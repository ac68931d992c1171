package explore

import (
	"fmt"
	"slices"
	"strings"

	"tbwf/internal/core"
	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/exp"
	"tbwf/internal/lincheck"
	"tbwf/internal/monitor"
	"tbwf/internal/objtype"
	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

// This file holds the shared-memory rigs of the registry (registry.go):
// each is written once and parameterised by what its rows vary — the
// elector behind the seam, the substrate it is placed on, or the one
// design element an ablated row breaks.

// Oracle conditioning constants. Each is the premise under which the
// corresponding property is actually asserted; outside it the verdict is
// vacuous (see Verdict).
const (
	// qaOpsPerProc is the per-process operation count of the lincheck
	// workload (3 procs × 4 ops is far under the checker's 64-op cap).
	qaOpsPerProc = 4
	// progressThreshold classifies processes as timely for the TBWF
	// progress oracle (core.Evaluate).
	progressThreshold = 2048
	// atomicStackMinSteps / abortableStackMinSteps are the budgets below
	// which the TBWF stacks cannot be expected to have stabilized, so the
	// progress oracle stays vacuous.
	atomicStackMinSteps    = 400_000
	abortableStackMinSteps = 2_000_000
	// def5TimelyBound is the suffix bound under which the Ω∆ Definition 5
	// and churn oracles consider a process timely.
	def5TimelyBound = 64
	// churnTolerance bounds the 2nd-half leader changes at the permanent
	// candidates under candidacy churn (with self-punishment the observed
	// value is ~0–2; without it, two per churn cycle).
	churnTolerance = 8
	// churnMinSteps is the budget below which monitor timeouts have not
	// adapted yet and churn stability cannot be expected.
	churnMinSteps = 150_000
	// messengerTimelyBound / messengerMinSteps condition the delivery
	// oracle: both processes must stay timely through the run's last
	// quarter and the run must be long enough for the back-off to win.
	messengerTimelyBound = 32
	messengerMinSteps    = 50_000
)

// tapedRegisterOptions derives a taped abort/effect adversary for this run:
// the probabilities come from the target stream, every decision goes through
// the plan's tape. The abort probability is kept >= 0.5 so contention stays
// adversarial.
func tapedRegisterOptions(env *Env) []register.AbOption {
	pAbort := 0.5 + 0.5*env.Rand().Float64()
	pEffect := env.Rand().Float64()
	return []register.AbOption{
		register.WithAbortPolicy(register.TapedAbort(pAbort, env.Tape)),
		register.WithEffectPolicy(register.TapedEffect(pEffect, env.Tape)),
	}
}

// qaClient is one process's client of a query-abortable counter: every
// operation adds the process's own delta, is driven to a settled response,
// and lands in the shared history the lincheck oracle reads.
type qaClient struct {
	k    *sim.Kernel
	proc prim.Proc
	h    *qa.Handle[int64, objtype.CounterOp, int64]
	p    int
	op   objtype.CounterOp
	// backoff is the next back-off in steps, capped at backoffCap (+p).
	backoff, backoffCap int64
	// The kernel runs one task at a time, so appending to the shared
	// history needs no locking.
	history *[]lincheck.Op[objtype.CounterOp, int64]
}

// do performs one operation and records it.
func (c *qaClient) do() {
	invokeAt := c.k.Step()
	resp := c.settle()
	*c.history = append(*c.history, lincheck.Op[objtype.CounterOp, int64]{
		Proc:     c.p,
		Invoke:   invokeAt,
		Response: c.k.Step(),
		Arg:      c.op,
		Resp:     resp,
	})
}

// settle is the query-abortable client loop: Invoke, and on ⊥ Query until
// the operation's fate is decided, then back off and re-invoke.
func (c *qaClient) settle() int64 {
	for {
		if resp, ok := c.h.Invoke(c.op); ok {
			return resp
		}
		// ⊥: settle the fate before doing anything else.
		for {
			resp, out := c.h.Query()
			if out == qa.QueryApplied {
				return resp
			}
			if out == qa.QueryNotApplied {
				break
			}
			c.proc.Step() // query aborted; retry it after a step
		}
		// Definitely not applied: back off before re-invoking. The
		// per-process growth factors differ so phase-locked
		// contenders desynchronize; a seed that still livelocks
		// simply never goes idle and the oracle stays vacuous.
		for s := int64(0); s < c.backoff; s++ {
			c.proc.Step()
		}
		c.backoff = c.backoff*2 + int64(c.p) + 1
		if c.backoff > c.backoffCap {
			c.backoff = c.backoffCap + int64(c.p)
		}
	}
}

// spawnQAClients draws one delta per process and spawns one client task
// per process running workload; it returns the history they share.
func spawnQAClients(k *sim.Kernel, env *Env, obj *qa.SharedObject[int64, objtype.CounterOp, int64],
	backoffCap int64, workload func(c *qaClient)) *[]lincheck.Op[objtype.CounterOp, int64] {
	history := new([]lincheck.Op[objtype.CounterOp, int64])
	deltas := make([]int64, k.N())
	for p := range deltas {
		deltas[p] = 1 + env.Rand().Int63n(9)
	}
	for p := range deltas {
		c := &qaClient{k: k, h: obj.Handle(p), p: p, op: objtype.CounterOp{Delta: deltas[p]},
			backoff: 2, backoffCap: backoffCap, history: history}
		k.Spawn(p, fmt.Sprintf("client[%d]", p), func(proc prim.Proc) {
			c.proc = proc
			workload(c)
		})
	}
	return history
}

// qaCounterRig wires the query-abortable counter with one client task per
// process running a small settled-operation workload, and a lincheck oracle
// over the effected operations. With corrupt set, one recorded response is
// deliberately misreported — the oracle's self-test.
func qaCounterRig(corrupt bool) Rig {
	return func(k *sim.Kernel, env *Env) ([]Judge, error) {
		obj, err := qa.NewSim(k, objtype.Counter{}, tapedRegisterOptions(env)...)
		if err != nil {
			return nil, err
		}
		history := spawnQAClients(k, env, obj, 4096, func(c *qaClient) {
			for i := 0; i < qaOpsPerProc; i++ {
				c.do()
			}
		})
		return []Judge{func(k *sim.Kernel, res sim.RunResult) Judgement {
			hist := *history
			if corrupt && len(hist) > 0 {
				hist = slices.Clone(hist)
				hist[0].Resp++ // the deliberate misreport under test
			}
			return linearizable(k, objtype.Counter{}, "effected ops", notIdle(res, len(hist)), hist)
		}}, nil
	}
}

// stackRig wires the full TBWF counter stack with hammer clients and two
// oracles: log accounting (completed operations never exceed allocated log
// slots) and TBWF progress (every timely process completes its quota).
func stackRig(builder elector.Builder, minSteps int64) Rig {
	return func(k *sim.Kernel, env *Env) ([]Judge, error) {
		st, err := exp.BuildCounterStack(k, deploy.BuildConfig{
			Elector:         builder,
			RegisterOptions: tapedRegisterOptions(env),
		})
		if err != nil {
			return nil, err
		}
		exp.SpawnHammers(k, st)
		accounting := func(*sim.Kernel, sim.RunResult) Judgement {
			var sum int64
			for _, c := range st.CompletedOps() {
				sum += c
			}
			slots := st.Object.Slots()
			if sum > slots {
				return failf("%d completed ops but only %d log slots allocated", sum, slots)
			}
			return okf("%d completed ops over %d log slots", sum, slots)
		}
		progress := func(k *sim.Kernel, res sim.RunResult) Judgement {
			if res.Steps < minSteps {
				return vacuousf("budget %d below the %d the %s stack needs to stabilize", res.Steps, minSteps, st.Elector.Name())
			}
			completed := st.CompletedOps()
			rep := sim.Analyze(k.Trace().Schedule(), k.N())
			wanted := make([]int64, k.N())
			for p := range wanted {
				if !k.Crashed(p) {
					wanted[p] = 2
				}
			}
			rpt, err := core.Evaluate(rep, completed, wanted, progressThreshold)
			if err != nil {
				return failf("evaluate: %v", err)
			}
			if !rpt.TBWFHolds() {
				return failf("timely processes %v did not complete their quota; completed=%v", rpt.Violations(), completed)
			}
			done, total := rpt.TimelyCompleted()
			return okf("%d/%d timely processes completed their quota", done, total)
		}
		return []Judge{accounting, progress}, nil
	}
}

// sharedMemory places a rig on the kernel's own registers; the net rows
// place theirs on a fabric they make first (net_target.go).
func sharedMemory(k *sim.Kernel, _ *Env) (prim.Substrate, error) { return deploy.Sim(k), nil }

// suffixTimely is the shared premise of the Ω∆ oracles: every process
// must stay suffix-timely from step from on (the finite reading of
// Definition 5 and of churn stability presumes candidates keep taking
// steps). It returns the vacuous reason, or "".
func suffixTimely(k *sim.Kernel, from int64) string {
	suffix := suffixReport(k, from)
	procs := make([]int, k.N())
	for p := range procs {
		procs[p] = p
	}
	if allTimely(suffix, procs, def5TimelyBound) {
		return ""
	}
	return fmt.Sprintf("not all processes are suffix-timely within %d (bounds %v)", def5TimelyBound, suffix.Bound)
}

// def5Rig deploys one elector through the elector seam — the same Builder
// contract the composition root consumes — on the substrate place makes,
// with nonCandidates permanent *non*-candidates and the rest permanent
// candidates, and checks Definition 5 over the run's second half. It is
// the one Definition 5 oracle: the paper's two constructions, on shared
// memory and on the fabric, and the two imported competitors (nerio,
// reputation) all face the same check, and the ablated variant (NoDepose)
// is the negative control proving it has teeth.
//
// Two premises gate the check: every process must stay suffix-timely, and
// the leader outputs must have stabilized before the window — Definition 5
// is an *eventual* property and stabilization time is finite but unbounded,
// so a still-settling run proves nothing either way. What remains has
// teeth: a stable leader vector must agree on a timely, self-electing
// leader.
func def5Rig(place func(*sim.Kernel, *Env) (prim.Substrate, error), builder elector.Builder, nonCandidates ...int) Rig {
	return func(k *sim.Kernel, env *Env) ([]Judge, error) {
		sub, err := place(k, env)
		if err != nil {
			return nil, err
		}
		el, err := builder.Build(sub, elector.Config{})
		if err != nil {
			return nil, err
		}
		insts := el.Instances()
		rec := omega.NewRecorder(insts)
		obs := omega.NewObserver(insts)
		k.AfterStep(rec.Sample)
		k.AfterStep(obs.Sample)
		for p, inst := range insts {
			if !slices.Contains(nonCandidates, p) { // those stay Ncandidates
				inst.Candidate.Set(true)
			}
		}
		env.RecordState(func() string { return fmt.Sprint(obs.Leaders()) })
		half := env.Steps / 2
		return []Judge{func(k *sim.Kernel, res sim.RunResult) Judgement {
			if untimely := suffixTimely(k, half); untimely != "" {
				return vacuousf("%s", untimely)
			}
			if obs.StabilizedAt() > half {
				return vacuousf("%s leader outputs still settling (last change at step %d, window from %d)",
					el.Name(), obs.StabilizedAt(), half)
			}
			rep := sim.Analyze(k.Trace().Schedule(), k.N())
			if viols := rec.CheckDefinition5(rep, def5TimelyBound, half, k.Crashed); len(viols) > 0 {
				return failf("%s: %s", el.Name(), strings.Join(viols, "; "))
			}
			return okf("%s satisfies Definition 5 over the final %d steps (stabilized at %d)", el.Name(), half, obs.StabilizedAt())
		}}, nil
	}
}

// churnRig runs one elector through the A2 scenario (exp.ChurnRig) —
// process 0 toggling candidacy forever — and asserts that leadership at
// the two permanent candidates stops reacting to the churn. That needs
// Figure 3's self-punishment rule, or the reputation elector's pricing of
// re-entries; the NoSelfPunish and NoPenalty ablations leave the lowest-id
// process stealing leadership on every re-entry, and the oracle fails.
func churnRig(builder elector.Builder) Rig {
	return func(k *sim.Kernel, env *Env) ([]Judge, error) {
		period := max(env.Steps/30, 2_000)
		el, obs, err := exp.ChurnRig(k, builder, period)
		if err != nil {
			return nil, err
		}
		env.RecordState(func() string { return fmt.Sprint(obs.Leaders()) })
		half := env.Steps / 2
		var firstHalf int64
		k.AfterStep(func(step int64) {
			if step == half {
				firstHalf = obs.Changes()
			}
		})
		return []Judge{func(k *sim.Kernel, res sim.RunResult) Judgement {
			if res.Steps < churnMinSteps {
				return vacuousf("budget %d below the %d the %s elector needs to adapt", res.Steps, churnMinSteps, el.Name())
			}
			if untimely := suffixTimely(k, half); untimely != "" {
				return vacuousf("%s", untimely)
			}
			second := obs.Changes() - firstHalf
			if second > churnTolerance {
				return failf("%s: %d leader changes at the permanent candidates in the 2nd half (tolerance %d): churn keeps stealing leadership",
					el.Name(), second, churnTolerance)
			}
			return okf("%s: %d leader changes in the 2nd half despite churn every %d steps", el.Name(), second, period)
		}}, nil
	}
}

// heartbeatRig runs the A1 scenario (exp.HeartbeatRig; the rows restrict
// process 0 with exp.SlowSender): a pathologically slow sender and a
// Figure 5 receiver. The oracle asserts the receiver suspects the slow
// sender for most of the run's second half; the single-register ablation is
// fooled by aborts and fails it.
func heartbeatRig(single bool) Rig {
	return func(k *sim.Kernel, env *Env) ([]Judge, error) {
		half := env.Steps / 2
		probe, err := exp.HeartbeatRig(k, single, half)
		if err != nil {
			return nil, err
		}
		return []Judge{func(k *sim.Kernel, res sim.RunResult) Judgement {
			if k.Crashed(1) {
				return vacuousf("receiver crashed: suffix samples are frozen")
			}
			if probe.Samples == 0 {
				return vacuousf("no suffix samples (receiver never ran past step %d)", half)
			}
			frac := float64(probe.Active) / float64(probe.Samples)
			if frac > 0.5 {
				return failf("receiver believed the slow sender timely in %.0f%% of %d suffix samples", 100*frac, probe.Samples)
			}
			return okf("sender suspected in %.0f%% of %d suffix samples", 100*(1-frac), probe.Samples)
		}}, nil
	}
}

// messengerRig runs the A3 scenario (exp.MessengerRig): a Figure 4 writer
// shipping a final value to a reader. The oracle asserts delivery whenever
// both processes stay timely to the end — which the back-off guarantees and
// its ablation loses under phase-locked (alternating) schedules.
func messengerRig(ablate bool) Rig {
	return func(k *sim.Kernel, env *Env) ([]Judge, error) {
		msg, err := exp.MessengerRig(k, ablate)
		if err != nil {
			return nil, err
		}
		return []Judge{func(k *sim.Kernel, res sim.RunResult) Judgement {
			if res.Steps < messengerMinSteps {
				return vacuousf("budget %d below the %d the back-off needs to win", res.Steps, messengerMinSteps)
			}
			suffix := suffixReport(k, env.Steps*3/4)
			if !allTimely(suffix, []int{0, 1}, messengerTimelyBound) {
				return vacuousf("writer/reader not both suffix-timely within %d (bounds %v): delivery not promised",
					messengerTimelyBound, suffix.Bound)
			}
			aborts := msg.Reg.Stats().ReadAborts
			if msg.Got != exp.MessengerValue {
				return failf("final value never delivered (reader saw %d after %d steps, %d read aborts)", msg.Got, res.Steps, aborts)
			}
			return okf("final value delivered (%d read aborts along the way)", aborts)
		}}, nil
	}
}

// monitorRig wires one activity monitor A(0,1) with the monitored process
// crashing mid-run (the plan generator injects the crash — the rows'
// MustCrash) and checks Definition 9 Property 5b: a crashed process is
// suspected at most once more.
func monitorRig(ablateGate bool) Rig {
	return func(k *sim.Kernel, env *Env) ([]Judge, error) {
		hbReg := register.NewAtomic(k, "HbRegister[1,0]", int64(-1))
		m := monitor.NewPair(0, 1, hbReg)
		if ablateGate {
			m.AblateFaultGate()
		}
		m.Monitoring.Set(true)
		m.ActiveFor.Set(true)
		k.Spawn(1, "monitored", m.MonitoredTask())
		k.Spawn(0, "monitoring", m.MonitoringTask())
		var crashSeen bool
		var cntrAtCrash int64
		k.AfterStep(func(step int64) {
			if !crashSeen && k.Crashed(1) {
				crashSeen = true
				cntrAtCrash = m.FaultCntr.Get()
			}
		})
		return []Judge{func(k *sim.Kernel, res sim.RunResult) Judgement {
			if !crashSeen {
				return vacuousf("the monitored process never crashed in this run")
			}
			inc := m.FaultCntr.Get() - cntrAtCrash
			if inc > 1 {
				return failf("faultCntr grew by %d after the crash; Definition 9 Property 5b allows at most 1", inc)
			}
			return okf("faultCntr grew by %d after the crash", inc)
		}}, nil
	}
}

// selftestPanicRig spawns a task that panics after a seed-derived number
// of its own steps: the deliberate failure that exercises the kernel-error
// artifact path (the noPanicOracle verdict, stack capture, replay of a
// panicking run).
func selftestPanicRig(k *sim.Kernel, env *Env) ([]Judge, error) {
	activate := 200 + env.Rand().Int63n(800)
	k.Spawn(0, "bomb", func(p prim.Proc) {
		for i := int64(0); ; i++ {
			if i == activate {
				panic(fmt.Sprintf("selftest bomb after %d steps", activate))
			}
			p.Step()
		}
	})
	return []Judge{func(k *sim.Kernel, res sim.RunResult) Judgement {
		// The fuse counts the task's own steps, which lag the kernel's step
		// counter by spawn overhead; the slack keeps budget-boundary runs
		// vacuous instead of misreported.
		if res.Steps < activate+16 {
			return vacuousf("budget %d at or below the bomb's %d-step fuse", res.Steps, activate)
		}
		// Reaching here means the kernel ran well past the fuse without the
		// panic surfacing — a determinism bug worth failing loudly on.
		return failf("the bomb should have fired at step %d but the run finished cleanly", activate)
	}}, nil
}
