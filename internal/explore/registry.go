package explore

import (
	"fmt"
	"strings"

	"tbwf/internal/adversary"
	"tbwf/internal/elector"
	"tbwf/internal/exp"
	"tbwf/internal/net"
	"tbwf/internal/objtype"
	"tbwf/internal/sim"
)

// Rig wires one system-under-test on the kernel — registers, tasks,
// workload and probes — and returns the judges of the finished run, one
// per oracle name of the row that uses it, in the row's order. It must
// derive all randomness from env.
type Rig func(k *sim.Kernel, env *Env) ([]Judge, error)

// Target is one row of the fuzz registry: a rig, the names of the oracles
// that judge it, and the plan generator's constraints. The registry
// (Targets) covers the repo's main constructions and, for each design
// element the paper motivates, an *ablated* row — the same rig with one
// thing broken, whose oracle is expected to fail: the campaign's built-in
// proof that the oracles have teeth.
type Target struct {
	// Name is the registry key, stored in plans and artifacts.
	Name string
	// Desc is a one-line description for -list output.
	Desc string
	// N is the kernel's process count.
	N int
	// Steps is the default step budget when the plan does not set one.
	Steps int64
	// Oracles names the rig's judges, in order: Execute stamps Oracles[i]
	// on the i-th judge's judgement. -list and the frontier map's per-oracle
	// rate rows read it too. (The kernel-level noPanicOracle replaces them
	// all on any target whose run panics.)
	Oracles []string
	// Ablated marks deliberately broken variants: excluded from "all"
	// campaigns unless asked for, and *expected* to produce failures.
	Ablated bool
	// Fabric marks targets whose registers are quorum protocols over
	// net.Fabric: the DLS adversary's Δ routes into the fabric's link
	// delay distribution (the rig reads env.DLS) instead of the
	// kernel's effect-delay hook, so the bound is charged once.
	Fabric bool
	// NoCrashes excludes the target from random crash injection (its
	// oracle's premise cannot survive a crash).
	NoCrashes bool
	// MustCrash lists processes every generated plan crashes mid-run (for
	// oracles *about* crash handling). Empty means nobody.
	MustCrash []int
	// Strategies restricts plan generation to these strategies; nil means
	// all of them.
	Strategies []Strategy
	// Partitions marks net/* targets: the plan generator adds a seeded
	// majority-preserving partition/heal schedule to every plan, which the
	// rig's fabric applies mid-run.
	Partitions bool
	// Avail optionally restricts per-process availability (layered over the
	// plan's schedule via sim.Restrict), for targets whose property needs a
	// structurally slow process. Availabilities carry state, so every run
	// makes its own.
	Avail func() map[int]sim.Availability
	// Rig wires the system and returns the run's judges.
	Rig Rig
}

// noPanicOracle is the kernel-level oracle Execute itself owns: a task
// panic fails it, on whatever target, in place of the row's own oracles
// (which never see a finished run).
const noPanicOracle = "no-panic"

// stationary excludes StrategyDLS. The churn-stability oracle is
// calibrated for adversaries whose timing regime is stationary: the DLS
// schedule rotates its starvation victim every era, so monitor timeouts
// keep being re-surprised and second-half leadership stability is not a
// sound expectation at high phi (a premise, not a protocol bug).
var stationary = []Strategy{StrategyWalk, StrategyPattern, StrategyPBound}

// Targets returns the registry, in registry order.
func Targets() []Target {
	return []Target{
		{
			Name:      "qa-counter",
			Desc:      "query-abortable counter under taped abort/effect adversaries; lincheck oracle",
			Oracles:   []string{"lincheck"},
			N:         3,
			Steps:     200_000,
			NoCrashes: true, // lincheck needs a complete history
			Rig:       qaCounterRig(false),
		},
		{
			Name:      "qa-counter-misreport",
			Desc:      "ablated: one response misreported to the checker; lincheck must fail",
			Oracles:   []string{"lincheck"},
			N:         3,
			Steps:     200_000,
			Ablated:   true,
			NoCrashes: true,
			Rig:       qaCounterRig(true),
		},
		{
			Name:    "counter-atomic",
			Desc:    "full TBWF counter stack on Ω∆-from-atomic-registers; progress + log-accounting oracles",
			Oracles: []string{"log-accounting", "tbwf-progress"},
			N:       3,
			Steps:   600_000,
			Rig:     stackRig(elector.Atomic, atomicStackMinSteps),
		},
		{
			Name:    "counter-abortable",
			Desc:    "full TBWF counter stack on Ω∆-from-abortable-registers (Theorem 15); progress + log-accounting oracles",
			Oracles: []string{"log-accounting", "tbwf-progress"},
			N:       3,
			Steps:   2_500_000,
			Rig:     stackRig(elector.Abortable, abortableStackMinSteps),
		},
		{
			Name:      "omega-registers",
			Desc:      "Ω∆ from atomic registers, all candidates; Definition 5 oracle",
			Oracles:   []string{"omega-def5"},
			N:         3,
			Steps:     400_000,
			NoCrashes: true, // a late crash legitimately destabilizes the check window
			Rig:       def5Rig(sharedMemory, elector.Atomic),
		},
		{
			Name:       "omega-churn",
			Desc:       "Ω∆ under perpetual candidacy churn; leadership-stability oracle",
			Oracles:    []string{"omega-churn-stability"},
			N:          3,
			Steps:      400_000,
			Strategies: stationary,
			Rig:        churnRig(elector.Atomic),
		},
		{
			Name:       "omega-churn-noselfpunish",
			Desc:       "ablated (A2): Figure 3 without self-punishment; churn steals leadership forever",
			Oracles:    []string{"omega-churn-stability"},
			N:          3,
			Steps:      400_000,
			Ablated:    true,
			Strategies: stationary,
			Rig:        churnRig(elector.NewAtomic(elector.AtomicOptions{NoSelfPunish: true})),
		},
		{
			Name:      "elector-atomic",
			Desc:      "bake-off: Figure 3 elector through the pluggable seam, process 0 non-candidate; Definition 5 oracle",
			Oracles:   []string{"elector-def5"},
			N:         3,
			Steps:     400_000,
			NoCrashes: true, // a late crash legitimately destabilizes the check window
			Rig:       def5Rig(sharedMemory, elector.Atomic, 0),
		},
		{
			Name:      "elector-abortable",
			Desc:      "bake-off: Figure 6 elector through the pluggable seam (default abort policy), process 0 non-candidate; Definition 5 oracle",
			Oracles:   []string{"elector-def5"},
			N:         3,
			Steps:     800_000,
			NoCrashes: true,
			Rig:       def5Rig(sharedMemory, elector.Abortable, 0),
		},
		{
			Name:      "elector-nerio",
			Desc:      "bake-off: Nerio epoch/lease elector, process 0 non-candidate; Definition 5 oracle",
			Oracles:   []string{"elector-def5"},
			N:         3,
			Steps:     400_000,
			NoCrashes: true,
			Rig:       def5Rig(sharedMemory, elector.Nerio, 0),
		},
		{
			Name:      "elector-nerio-nodepose",
			Desc:      "ablated: Nerio without deposition; the epoch freezes on the non-candidate and Definition 5 must fail",
			Oracles:   []string{"elector-def5"},
			N:         3,
			Steps:     400_000,
			Ablated:   true,
			NoCrashes: true,
			Rig:       def5Rig(sharedMemory, elector.NewNerio(elector.NerioOptions{NoDepose: true}), 0),
		},
		{
			Name:      "elector-reputation",
			Desc:      "bake-off: reputation-penalty elector, process 0 non-candidate; Definition 5 oracle",
			Oracles:   []string{"elector-def5"},
			N:         3,
			Steps:     400_000,
			NoCrashes: true,
			Rig:       def5Rig(sharedMemory, elector.Reputation, 0),
		},
		{
			Name:       "elector-reputation-churn",
			Desc:       "bake-off: reputation-penalty elector under perpetual candidacy churn; leadership-stability oracle",
			Oracles:    []string{"elector-churn-stability"},
			N:          3,
			Steps:      400_000,
			Strategies: stationary,
			Rig:        churnRig(elector.Reputation),
		},
		{
			Name:       "elector-reputation-nopenalty",
			Desc:       "ablated: reputation without penalties; churn steals leadership forever and the stability oracle must fail",
			Oracles:    []string{"elector-churn-stability"},
			N:          3,
			Steps:      400_000,
			Ablated:    true,
			Strategies: stationary,
			Rig:        churnRig(elector.NewReputation(elector.ReputationOptions{NoPenalty: true})),
		},
		{
			Name:    "heartbeat-dual",
			Desc:    "Figure 5 dual-register heartbeat vs a pathologically slow sender; suspicion oracle",
			Oracles: []string{"hb-suspects-slow-sender"},
			N:       2,
			Steps:   400_000,
			Avail:   exp.SlowSender,
			Rig:     heartbeatRig(false),
		},
		{
			Name:    "heartbeat-single",
			Desc:    "ablated (A1): single-register heartbeat; aborts alone fool the receiver",
			Oracles: []string{"hb-suspects-slow-sender"},
			N:       2,
			Steps:   400_000,
			Ablated: true,
			Avail:   exp.SlowSender,
			Rig:     heartbeatRig(true),
		},
		{
			Name:      "messenger-backoff",
			Desc:      "Figure 4 messenger with reader back-off; delivery oracle",
			Oracles:   []string{"messenger-delivery"},
			N:         2,
			Steps:     150_000,
			NoCrashes: true, // a crashed writer never delivers, trivially
			Rig:       messengerRig(false),
		},
		{
			Name:      "messenger-nobackoff",
			Desc:      "ablated (A3): no reader back-off; phase-locked schedules starve delivery",
			Oracles:   []string{"messenger-delivery"},
			N:         2,
			Steps:     150_000,
			Ablated:   true,
			NoCrashes: true,
			Rig:       messengerRig(true),
		},
		{
			Name:      "monitor-pair",
			Desc:      "activity monitor A(p,q) with q crashing mid-run; Definition 9 Property 5b oracle",
			Oracles:   []string{"monitor-5b"},
			N:         2,
			Steps:     150_000,
			MustCrash: []int{1},
			Rig:       monitorRig(false),
		},
		{
			Name:      "monitor-nogate",
			Desc:      "ablated: fault-counter gate removed; a crashed process is charged forever",
			Oracles:   []string{"monitor-5b"},
			N:         2,
			Steps:     150_000,
			Ablated:   true,
			MustCrash: []int{1},
			Rig:       monitorRig(true),
		},
		{
			Name:      "selftest-panic",
			Desc:      "ablated: a task that panics at a seed-derived step; exercises the panic artifact path",
			Oracles:   []string{"selftest"},
			N:         1,
			Steps:     20_000,
			Ablated:   true,
			NoCrashes: true,
			Rig:       selftestPanicRig,
		},

		// The net/* rows fuzz the message-passing substrate: the same rigs
		// and oracles as the shared-memory rows, but every register
		// operation is an ABD quorum protocol over the deterministic fabric,
		// and the adversary gains the network moves the other substrates
		// cannot express — seeded link-delay jitter, duplication, loss, and
		// the plan-carried partition/heal schedule (Plan.Partitions). The
		// quorum-breaking ablation (read quorum of 1, so the read and write
		// quorums no longer intersect) is the campaign's proof that the
		// lincheck oracle still has teeth through a network.
		{
			Name:    "net/partition",
			Desc:    "query-abortable counter over ABD majority quorums on the fabric, seeded mid-run partition/heal; lincheck oracle",
			Oracles: []string{"lincheck"},
			N:       3,
			// ABD makes every register operation a two-phase quorum round
			// (~10-30 kernel steps), and a partitioned client stalls until
			// the heal; the budget covers both.
			Steps:      300_000,
			NoCrashes:  true, // lincheck needs a complete history
			Partitions: true,
			Fabric:     true,
			Rig:        netCounterRig(net.Config{}),
		},
		{
			Name:    "net/reorder",
			Desc:    "Ω∆ elector over ABD registers under delay jitter + duplicate faults; Definition 5 oracle",
			Oracles: []string{"net-def5"},
			N:       3,
			// The activity monitors need ~700k steps to adapt their
			// timeouts past ABD's quorum latency; the Definition 5 window
			// is the second half, so the budget leaves the whole
			// adaptation outside it.
			Steps:     2_000_000,
			NoCrashes: true, // a late crash legitimately destabilizes the check window
			Fabric:    true,
			Rig:       def5Rig(reorderFabric, elector.Atomic, 0),
		},
		{
			Name:       "net/partition-rq1",
			Desc:       "ablated: read quorum of 1 breaks quorum intersection; lincheck must fail",
			Oracles:    []string{"lincheck"},
			N:          3,
			Steps:      300_000,
			Ablated:    true,
			NoCrashes:  true,
			Partitions: true,
			Fabric:     true,
			Rig:        netCounterRig(net.Config{ReadQuorum: 1}),
		},

		{
			Name:      "serve/counter",
			Desc:      "sim-deployed service backend (queue+backpressure+TBWF counter); FIFO, accounting and lincheck oracles",
			Oracles:   []string{"serve-fifo", "serve-accounting", "serve-lincheck"},
			N:         3,
			Steps:     800_000,
			NoCrashes: true, // the oracles need every accepted op to settle
			Rig:       serveRig("counter", objtype.Counter{}, counterScriptOp),
		},
		{
			Name:      "serve/register",
			Desc:      "sim-deployed service backend over the register object (read/write/cas wire ops); FIFO, accounting and lincheck oracles",
			Oracles:   []string{"serve-fifo", "serve-accounting", "serve-lincheck"},
			N:         3,
			Steps:     800_000,
			NoCrashes: true,
			Rig:       serveRig("register", objtype.Register{}, registerScriptOp),
		},
		{
			Name:      "shard/kv",
			Desc:      "sharded keyspace (2 TBWF stacks, batched workers); FIFO, accounting and per-shard lincheck oracles",
			Oracles:   []string{"shard-fifo", "shard-accounting", "shard-lincheck"},
			N:         3,
			Steps:     800_000,
			NoCrashes: true, // the oracles need every accepted op to settle
			Rig:       shardKVRig(false),
		},
		{
			Name:      "shard/kv-nobatchfence",
			Desc:      "ablated: batch responses rotated across the batch's ops; per-shard lincheck must fail",
			Oracles:   []string{"shard-fifo", "shard-accounting", "shard-lincheck"},
			N:         3,
			Steps:     800_000,
			Ablated:   true,
			NoCrashes: true,
			Rig:       shardKVRig(true),
		},

		frontierProbe("frontier/monitor-adaptive",
			"heartbeat monitor that doubles its timeout on false suspicion; sound at every (phi,delta)",
			false, adversary.DLS{Phi: 1}.Guard(), true),
		frontierProbe("frontier/monitor-fixed",
			"ablated: timeout fixed at the phi=1,delta=0 guard; false suspicions grow along both axes",
			true, adversary.DLS{Phi: 1}.Guard(), false),
		frontierProbe("frontier/monitor-fixed-wide",
			"ablated: timeout fixed at the phi=4,delta=8 guard; frontier shifted outward, still collapses",
			true, adversary.DLS{Phi: 4, Delta: 8}.Guard(), false),
	}
}

// frontierProbe is the row of one frontier/* probe monitor (see
// frontier_target.go): the three differ only in their timeout policy.
func frontierProbe(name, desc string, ablated bool, timeout int64, adaptive bool) Target {
	return Target{
		Name:       name,
		Desc:       desc,
		Oracles:    []string{"monitor-frontier"},
		N:          2,
		Steps:      frontierSteps,
		Ablated:    ablated,
		NoCrashes:  true,                    // every suspicion must be attributable to timing alone
		Strategies: []Strategy{StrategyDLS}, // the probes' one variable is the (Φ,Δ) point
		Rig:        frontierMonitorRig(timeout, adaptive),
	}
}

// TargetNames returns the registered target names, registry order.
func TargetNames() []string {
	ts := Targets()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// TargetByName resolves a registry entry.
func TargetByName(name string) (Target, error) {
	for _, t := range Targets() {
		if t.Name == name {
			return t, nil
		}
	}
	return Target{}, fmt.Errorf("explore: unknown target %q (known: %s)", name, strings.Join(TargetNames(), ", "))
}
