// Package explore is a schedule-space exploration engine over the
// simulation kernel (internal/sim): a fuzzer for the paper's quantified
// guarantees. The paper's properties — TBWF (Definition 3), Ω∆ stability
// (Definition 5), the activity-monitor contract (Definition 9), and
// linearizability of the query-abortable construction — are quantified
// over *all* schedules, crash patterns, and abort/effect adversaries, but
// hand-written tests can only pin a handful of them. This package sweeps
// that space: it generates adversarial runs from a seed, checks them with
// property oracles adapted from the repo's existing checkers, and
// condenses every failure into a small, self-contained JSON artifact that
// replays byte-exactly.
//
// Determinism contract: a run is a pure function of its Plan. The three
// sources of nondeterminism are each pinned:
//
//   - scheduling — the executed schedule is recorded by the kernel's trace
//     and stored as the plan's explicit prefix, so a replay re-issues the
//     very same process picks (holes left by the shrinker fall back to a
//     stateless step-indexed rotation);
//   - crashes — generated up front from the seed and stored explicitly;
//   - abort/effect policy coin flips — drawn through a recording tape
//     (register.Tape) whose record is stored in the plan and replayed
//     verbatim.
//
// Everything else (target wiring, workload scripts) derives
// deterministically from the seed, so Execute(plan) always produces the
// same verdicts and the same trace hash. The delta-debugging shrinker
// (Shrink) leans on exactly this property.
package explore

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"

	"tbwf/internal/adversary"
	"tbwf/internal/exp"
	"tbwf/internal/net"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

// Crash schedules one crash injection: process Proc takes no steps from
// step Step on.
type Crash struct {
	Proc int   `json:"proc"`
	Step int64 `json:"step"`
}

// Strategy selects how the generator explores the schedule space past the
// plan's explicit prefix.
type Strategy string

const (
	// StrategyWalk is a seeded uniform random walk over the alive set.
	StrategyWalk Strategy = "walk"
	// StrategyPattern repeats a short seed-derived pattern forever —
	// phase-locking adversaries (strict alternations and their relatives)
	// that random walks almost never sustain.
	StrategyPattern Strategy = "pattern"
	// StrategyPBound is a preemption-bounded schedule: the run is divided
	// into a seed-chosen number of contiguous segments (at most
	// maxPreemptions switches), each owned by one process — the classic
	// few-context-switches adversary.
	StrategyPBound Strategy = "pbound"
	// StrategyDLS is the Dwork–Lynch–Stockmeyer partial-synchrony
	// adversary: scheduling honors the plan's Φ speed bound (a rotating
	// victim is starved up to Φ·|alive| consecutive global steps, never
	// more) and register/fabric effects are delayed up to Δ steps. The
	// policy point lives in Plan.DLS; a plan with this strategy and no
	// policy gets one derived from its seed.
	StrategyDLS Strategy = "dls"
)

// Plan is the complete, self-contained description of one exploration run.
// Execute(plan) is deterministic: same plan, same run, same verdicts.
type Plan struct {
	// Target names a registered fuzz target (see Targets).
	Target string `json:"target"`
	// Seed drives every derived choice: the strategy schedule, the policy
	// tape's fresh draws, and the target's internal workload script.
	Seed int64 `json:"seed"`
	// Steps is the run's step budget.
	Steps int64 `json:"steps"`
	// Strategy picks the schedule generator used past the prefix.
	Strategy Strategy `json:"strategy"`
	// Prefix holds explicit schedule choices for steps < len(Prefix): the
	// process to schedule at each step. An entry of -1 is a hole (left by
	// the shrinker): the step falls back to a stateless rotation over the
	// alive set. A failure artifact stores the full executed schedule
	// here, which is what makes replay byte-exact.
	Prefix []int32 `json:"prefix,omitempty"`
	// Crashes is the crash set, applied via Kernel.CrashAt.
	Crashes []Crash `json:"crashes,omitempty"`
	// Tape is the recorded abort/effect policy decision record ('0'/'1'
	// per decision, in draw order), replayed verbatim before fresh seeded
	// draws take over.
	Tape string `json:"tape,omitempty"`
	// Partitions is the network partition/heal schedule for net/* targets
	// (applied by the target's fabric at the listed kernel steps); empty
	// for shared-memory targets.
	Partitions []net.PartitionEvent `json:"partitions,omitempty"`
	// DLS pins the (Φ,Δ) adversary point when Strategy is StrategyDLS:
	// Phi bounds relative process speeds, Delta bounds effect delays
	// (kernel register writes on shared-memory targets, fabric link
	// delays on net/* targets). Nil with StrategyDLS means "derive the
	// point from the seed"; ignored for the other strategies.
	DLS *adversary.DLS `json:"dls,omitempty"`
}

// Env is what a target's Rig receives: the deterministic context of one
// run.
type Env struct {
	// Seed is the plan's seed.
	Seed int64
	// Steps is the run's step budget, for scaling workload scripts.
	Steps int64
	// Tape is the policy coin-flip tape; wire it into abortable registers
	// via register.TapedAbort / register.TapedEffect.
	Tape *register.Tape
	// Partitions is the plan's partition/heal schedule; net/* targets pass
	// it to their fabric.
	Partitions []net.PartitionEvent
	// DLS is the plan's normalized adversary point (nil unless the plan
	// runs the dls strategy). Targets with their own delay machinery —
	// the net/* fabrics — read Delta here and route it into their link
	// delay distributions instead of the kernel's effect-delay hook.
	DLS      *adversary.DLS
	rng      *rand.Rand
	stateFns []func() string
}

// Rand is the target-local derivation stream: deterministic in the seed
// and independent of the schedule and tape streams. Rig-time draws only.
func (e *Env) Rand() *rand.Rand { return e.rng }

// RecordState registers a post-run state reporter whose string joins the
// run's coarse state signature (Outcome.StateSig) — the coverage loop's
// novelty key. Targets register domain state the generic signature cannot
// see (the leader vector, say); the fn runs after the run ends and must
// only read plain memory (Peek-style accessors, observer snapshots).
func (e *Env) RecordState(fn func() string) { e.stateFns = append(e.stateFns, fn) }

// Outcome is what one executed plan produced.
type Outcome struct {
	// Target echoes the plan's target.
	Target string `json:"target"`
	// Steps is the number of steps actually executed (less than the budget
	// when the run went idle).
	Steps int64 `json:"steps"`
	// Idle reports whether the run ended with nothing schedulable.
	Idle bool `json:"idle"`
	// Verdicts are the target's oracle verdicts, in oracle order.
	Verdicts []Verdict `json:"verdicts"`
	// TraceHash fingerprints the executed run: schedule, per-process step
	// and register-operation counters. Two runs with equal hashes took the
	// same steps in the same order and issued the same operations.
	TraceHash string `json:"trace_hash"`
	// StateSig is the coarse state signature (see coverage.go): verdict
	// statuses × per-process gap/operation buckets × target-registered
	// state (leader vector). Much coarser than TraceHash — it buckets
	// runs by *what kind of behavior* they reached, which is the
	// coverage loop's novelty key.
	StateSig string `json:"state_sig"`
	// Err is the kernel error (a task panic with its stack), if any.
	Err string `json:"err,omitempty"`

	// Schedule is the executed schedule (the recorded choice tape); kept
	// out of the JSON encoding — artifacts carry it as the plan's Prefix.
	Schedule []int32 `json:"-"`
	// Tape is the policy decision record after the run.
	Tape string `json:"-"`
	// Writes is the run's register write log (step, process, register),
	// the anchor points for the coverage loop's preemption-pinch mutation
	// — schedule tightening around linearization points.
	Writes []sim.WriteEvent `json:"-"`
}

// Failed reports whether any oracle failed.
func (o *Outcome) Failed() bool {
	for _, v := range o.Verdicts {
		if !v.OK {
			return true
		}
	}
	return false
}

// FirstFailure returns the first failing verdict, or nil.
func (o *Outcome) FirstFailure() *Verdict {
	for i := range o.Verdicts {
		if !o.Verdicts[i].OK {
			return &o.Verdicts[i]
		}
	}
	return nil
}

// Execute runs a plan to completion and returns its outcome. It is a pure
// function of the plan (see the package comment's determinism contract).
func Execute(p Plan) (*Outcome, error) {
	tgt, err := TargetByName(p.Target)
	if err != nil {
		return nil, err
	}
	steps := p.Steps
	if steps <= 0 {
		steps = tgt.Steps
	}
	// Normalize the adversary point before anything derives from the plan:
	// a dls plan without an explicit policy gets a seed-derived one, so a
	// bare {strategy: "dls"} plan is still a complete run description.
	if p.Strategy == StrategyDLS && p.DLS == nil {
		d := defaultDLS(p.Seed)
		p.DLS = &d
	}
	if p.DLS != nil {
		d := p.DLS.Normalize()
		p.DLS = &d
	}
	env := &Env{
		Seed:       p.Seed,
		Steps:      steps,
		Tape:       register.ReplayTape(mix(p.Seed, streamTape), p.Tape),
		Partitions: p.Partitions,
		rng:        rand.New(rand.NewSource(mix(p.Seed, streamTarget))),
	}
	if p.Strategy == StrategyDLS {
		env.DLS = p.DLS
	}

	base := newPlanSchedule(p, steps)
	var sched sim.Schedule = base
	if tgt.Avail != nil {
		sched = sim.Restrict(base, tgt.Avail())
	}
	k := sim.New(tgt.N, sim.WithSchedule(sched), sim.WithWriteLog(true))
	if env.DLS != nil && env.DLS.Delta > 0 && !tgt.Fabric {
		// The Δ half of the adversary: register write effects are held in
		// flight up to Delta steps. Fabric-backed targets skip the kernel
		// hook — their registers are quorum protocols whose every message
		// already pays a fabric delay drawn from the same Δ (the target
		// wires env.DLS into its FabricConfig), and stacking both would
		// double-charge the bound.
		k.SetEffectDelay(adversary.DelayFn(env.DLS.Delta, mix(p.Seed, streamDelay)))
	}
	for _, c := range p.Crashes {
		if c.Proc >= 0 && c.Proc < tgt.N && c.Step >= 0 {
			k.CrashAt(c.Proc, c.Step)
		}
	}
	judges, err := tgt.Rig(k, env)
	if err != nil {
		return nil, fmt.Errorf("explore: build target %s: %w", p.Target, err)
	}
	if len(judges) != len(tgt.Oracles) {
		return nil, fmt.Errorf("explore: target %s names %d oracles but its rig returned %d judges", p.Target, len(tgt.Oracles), len(judges))
	}
	res, runErr := k.Run(steps)
	k.Shutdown()

	out := &Outcome{
		Target:   p.Target,
		Steps:    res.Steps,
		Idle:     res.Idle,
		Schedule: append([]int32(nil), k.Trace().Schedule()...),
		Tape:     env.Tape.Bits(),
		Writes:   k.Trace().Writes(),
	}
	if runErr != nil {
		// A task panicked: the panic (with the stack the kernel captured)
		// is the finding; the target's oracles never see a finished run.
		// The verdict detail keeps only the error's first line — the stack
		// below it carries goroutine ids and addresses that vary between
		// runs, and verdicts must replay byte-exactly. The full stack stays
		// in Err.
		out.Err = runErr.Error()
		detail := out.Err
		if i := strings.IndexByte(detail, '\n'); i >= 0 {
			detail = detail[:i]
		}
		out.Verdicts = []Verdict{{Oracle: noPanicOracle, OK: false, Detail: detail}}
	} else {
		for i, judge := range judges {
			j := judge(k, res)
			out.Verdicts = append(out.Verdicts, Verdict{Oracle: tgt.Oracles[i], OK: j.OK, Detail: j.Detail})
		}
	}
	out.TraceHash = k.TraceHash()
	out.StateSig = stateSig(k, out, env.stateExtra())
	return out, nil
}

// defaultDLS derives a seed-determined (Φ,Δ) point for dls plans that do
// not pin one: Φ in [1,8], Δ in [0,16]. The caps keep every process
// comfortably inside the oracles' timeliness premises (def5TimelyBound,
// messengerTimelyBound) so sound targets stay sound at any derived point;
// the frontier mapper pins harsher points explicitly.
func defaultDLS(seed int64) adversary.DLS {
	rng := rand.New(rand.NewSource(mix(seed, streamDelay)))
	return adversary.DLS{Phi: 1 + rng.Int63n(8), Delta: rng.Int63n(17)}
}

// SafeExecute is Execute with panic isolation: a panic escaping a target's
// Rig or judges is returned as an *exp.PanicError instead of
// tearing down the caller (the fuzz campaign runs many plans on one worker
// pool).
func SafeExecute(p Plan) (out *Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = &exp.PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	return Execute(p)
}

// Seed-stream derivation constants: each consumer of the plan's seed draws
// from its own splitmix64-derived stream so that, e.g., adding a tape draw
// cannot perturb the schedule.
const (
	streamSchedule = 0x736368656475 // "schedu"
	streamTape     = 0x74617065     // "tape"
	streamTarget   = 0x746172676574 // "target"
	streamGen      = 0x67656e       // "gen"
	streamDelay    = 0x64656c6179   // "delay"
	streamMutant   = 0x6d7574       // "mut"
)

// mix derives an independent 63-bit stream seed from (seed, stream) with a
// splitmix64 finalizer.
func mix(seed, stream int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
