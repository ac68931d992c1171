package explore

import (
	"fmt"

	"tbwf/internal/net"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
	"tbwf/internal/sim"
)

// This file holds what the net/* rows (registry.go) add to the
// shared-memory rigs: the two seeded fabrics, and the counter workload
// that straddles a partition.

// dlsLinkDelays routes the DLS adversary's Δ into a fabric: under it the
// fabric *is* the Δ bound, with link delays drawn from [1, 1+Δ] instead of
// the rig's default jitter band. (The kernel's effect-delay hook stays off
// for Fabric targets — see Target.Fabric — so the bound is charged exactly
// once per message.)
func dlsLinkDelays(env *Env, fcfg *net.FabricConfig) {
	if env.DLS != nil {
		fcfg.MinDelay, fcfg.MaxDelay = 1, 1+env.DLS.Delta
	}
}

// netCounterRig is qaCounterRig lifted onto the net substrate: the
// query-abortable counter's registers are ABD quorum registers on a
// seeded fabric, the plan's partition schedule cuts and heals the network
// mid-run, and the oracle is the same lincheck over effected operations.
// cfg carries the quorum sizes — the rq1 ablation passes ReadQuorum 1.
func netCounterRig(cfg net.Config) Rig {
	return func(k *sim.Kernel, env *Env) ([]Judge, error) {
		fcfg := net.FabricConfig{
			Seed:     env.Rand().Int63(),
			MinDelay: 1,
			MaxDelay: 4 + env.Rand().Int63n(5),
			// Drops matter beyond forcing retransmits: once a quorum has
			// answered, the broadcast returns and a dropped third-replica
			// message is never resent, so that replica stays stale until a
			// later write-back repairs it. Majority quorums absorb that by
			// intersection; the rq1 ablation is exactly the configuration
			// that reads through it.
			DropProb:   0.1 + 0.2*env.Rand().Float64(),
			Partitions: env.Partitions,
		}
		dlsLinkDelays(env, &fcfg)
		sub, fab, err := net.NewFabric(k, fcfg, cfg)
		if err != nil {
			return nil, err
		}
		obj, err := qa.New(objtype.Counter{}, k.N(),
			qa.SubstrateFactories[objtype.CounterOp](sub, tapedRegisterOptions(env)...), 0)
		if err != nil {
			return nil, err
		}
		// The workload has two phases. A contention phase runs operations
		// back-to-back from every client — the staleness adversary for the
		// quorum ablation, where a read quorum of 1 can miss decided slots and
		// double-apply operations. A straddle phase then gates the remaining
		// operations around the plan's partition window, so operations are in
		// flight when the cut lands, stall while isolated, and must complete
		// (and still linearize) after the heal. 3×(16+4) = 60 operations stays
		// under the checker's 64-op cap.
		const contendOps, straddleOps = 16, 4
		var cut, heal int64
		for _, ev := range env.Partitions {
			if len(ev.Groups) > 0 && (cut == 0 || ev.Step < cut) {
				cut = ev.Step
			}
			if ev.Step > heal {
				heal = ev.Step
			}
		}
		// Back-off cap 512, not shared memory's 4096: an ABD propose spans
		// hundreds of kernel steps, so a large cap would serialize the
		// clients and starve the oracle of the overlapping proposals it is
		// checking. Each operation starts its back-off over.
		history := spawnQAClients(k, env, obj, 512, func(c *qaClient) {
			do := func() {
				c.backoff = 2
				c.do()
			}
			for i := 0; i < contendOps; i++ {
				do()
			}
			for j := 0; j < straddleOps; j++ {
				if heal > 0 {
					// Gate each straddle op so the batch spans the window:
					// the first is in flight when the cut lands, the last
					// starts after the heal.
					at := cut - 500 + int64(j)*((heal-cut)+1500)/int64(straddleOps-1)
					for k.Step() < at {
						c.proc.Step()
					}
				}
				do()
			}
		})
		return []Judge{func(k *sim.Kernel, res sim.RunResult) Judgement {
			f := linearizable(k, objtype.Counter{}, "effected ops", notIdle(res, len(*history)), *history)
			r, w := sub.Quorums()
			f.Detail += fmt.Sprintf(" (across partition/heal over quorums r=%d/w=%d, %d messages dropped)", r, w, fab.Dropped())
			return f
		}}, nil
	}
}

// reorderFabric places a def5Rig on ABD registers over a fabric with heavy
// delay jitter plus duplicate faults — the reordering adversary.
func reorderFabric(k *sim.Kernel, env *Env) (prim.Substrate, error) {
	// Duplicates and delay jitter only — no loss. A dropped quorum
	// message stalls the sender until the retransmit timer fires, a
	// latency spike far beyond anything the monitors' adaptive timeouts
	// settle on, so persistent random loss means persistent spurious
	// suspicions and a leader that never stabilizes. Loss (and its
	// recovery) is the partition targets' domain; this target is the
	// reordering adversary.
	fcfg := net.FabricConfig{
		Seed:            env.Rand().Int63(),
		MinDelay:        1,
		MaxDelay:        2 + env.Rand().Int63n(4),
		DupProb:         0.1 + 0.15*env.Rand().Float64(),
		RetransmitEvery: 32,
	}
	// Under DLS the jitter the monitors must adapt to is the plan's pinned
	// delay bound rather than a fixed draw.
	dlsLinkDelays(env, &fcfg)
	sub, _, err := net.NewFabric(k, fcfg, net.Config{})
	return sub, err
}
