package exp

import (
	"fmt"

	"tbwf/internal/elector"
	"tbwf/internal/net"
	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/sim"
)

// N1Config parameterizes the quorum-register cost measurement.
type N1Config struct {
	// N is the system size (default 3).
	N int
	// OpsEach is how many write+read pairs every process performs on the
	// shared register (default 40).
	OpsEach int64
	// Steps is the per-run budget; runs normally finish early once all
	// processes complete their ops (default 8M).
	Steps int64
	// Delays are the fabric MaxDelay values swept (default 1,2,4,8).
	Delays []int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

// N1NetRegister measures what an ABD quorum round costs on the message
// fabric: every process hammers one shared atomic register with
// write+read pairs, and the table reports kernel steps per completed
// operation as the delivery delay grows — with and without message loss,
// which adds retransmission rounds on top (EXPERIMENTS.md NET).
func N1NetRegister(cfg N1Config) (*Table, error) {
	if cfg.N == 0 {
		cfg.N = 3
	}
	if cfg.OpsEach == 0 {
		cfg.OpsEach = 40
	}
	if cfg.Steps == 0 {
		cfg.Steps = 8_000_000
	}
	if len(cfg.Delays) == 0 {
		cfg.Delays = []int64{1, 2, 4, 8}
	}
	t := &Table{
		ID: "N1",
		Title: fmt.Sprintf("quorum-register cost on the fabric: n=%d, %d write+read pairs/process",
			cfg.N, cfg.OpsEach),
		Columns: []string{"max delay", "drop prob", "ops", "steps", "steps/op", "dropped"},
		Notes: []string{
			"each operation is a two-phase majority round (ABD): cost scales with the message delay, not with contention",
			"with loss, retransmission (every 64 parked steps) recovers the round at the price of extra steps and duplicate traffic",
		},
	}
	var scs []Scenario
	for _, delay := range cfg.Delays {
		for _, drop := range []float64{0, 0.2} {
			delay, drop := delay, drop
			scs = append(scs, Scenario{Name: fmt.Sprintf("delay-%d/drop-%.1f", delay, drop), Run: func(res *Result) error {
				k := sim.New(cfg.N)
				sub, fab, err := net.NewFabric(k,
					net.FabricConfig{Seed: 11, MinDelay: 1, MaxDelay: delay, DropProb: drop},
					net.Config{})
				if err != nil {
					return err
				}
				reg := prim.NewRegister[int64](sub, "n1.shared", 0)
				for p := 0; p < cfg.N; p++ {
					p := p
					sub.Spawn(p, fmt.Sprintf("hammer[%d]", p), func(pp prim.Proc) {
						for i := int64(0); i < cfg.OpsEach; i++ {
							reg.Write(int64(p)<<32 | i)
							reg.Read()
						}
					})
				}
				r, err := k.Run(cfg.Steps)
				if err != nil {
					return err
				}
				k.Shutdown()
				res.Record(k)
				if !r.Idle {
					res.AddNote("N1 delay-%d/drop-%.1f exhausted its %d-step budget before finishing", delay, drop, cfg.Steps)
				}
				ops := 2 * cfg.OpsEach * int64(cfg.N)
				res.AddRow(delay, fmt.Sprintf("%.1f", drop), ops, r.Steps,
					fmt.Sprintf("%.0f", float64(r.Steps)/float64(ops)), fab.Dropped())
				return nil
			}})
		}
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}

// N2Config parameterizes the delay sweep for elector stabilization.
type N2Config struct {
	// N is the system size (default 3).
	N int
	// Steps is the per-run budget (default 8M; slower fabrics need the
	// room — every heartbeat write is a quorum round).
	Steps int64
	// Delays are the fabric MaxDelay values swept (default 1,4,8,16 —
	// below ~4 the elector stabilizes as fast as on shared memory).
	Delays []int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

// N2NetDelaySweep deploys the default Ω∆ elector on the fabric with all
// processes candidates and sweeps the delivery delay: the table reports
// when the leader vector stabilizes and how often it churned first. The
// timeliness the elector's analysis assumes of shared memory is exactly
// what the fabric degrades, so stabilization stretches with the delay —
// the graceful-degradation story told at the network layer
// (EXPERIMENTS.md NET).
func N2NetDelaySweep(cfg N2Config) (*Table, error) {
	if cfg.N == 0 {
		cfg.N = 3
	}
	if cfg.Steps == 0 {
		cfg.Steps = 8_000_000
	}
	if len(cfg.Delays) == 0 {
		cfg.Delays = []int64{1, 4, 8, 16}
	}
	builder := elector.Atomic
	t := &Table{
		ID: "N2",
		Title: fmt.Sprintf("elector stabilization vs fabric delay: n=%d, %d steps/run, %s Ω∆",
			cfg.N, cfg.Steps, builder.FlagName()),
		Columns: []string{"max delay", "leader", "stabilized at", "leader changes", "dropped"},
		Notes: []string{
			"all processes are candidates; the observer samples the full leader vector every kernel step",
			"each heartbeat read/write is a quorum round, so delay multiplies directly into the elector's observation cadence",
			"'stabilized at' is the last observed leader change within the budget: past delay ~8 churn recurs intermittently for the whole run — the timeliness the elector's analysis assumes is gone, and only the graceful-degradation guarantees remain",
		},
	}
	var scs []Scenario
	for _, delay := range cfg.Delays {
		delay := delay
		scs = append(scs, Scenario{Name: fmt.Sprintf("delay-%d", delay), Run: func(res *Result) error {
			k := sim.New(cfg.N)
			sub, fab, err := net.NewFabric(k,
				net.FabricConfig{Seed: 23, MinDelay: 1, MaxDelay: delay},
				net.Config{})
			if err != nil {
				return err
			}
			el, err := builder.Build(sub, elector.Config{})
			if err != nil {
				return err
			}
			insts := el.Instances()
			obs := omega.NewObserver(insts)
			k.AfterStep(obs.Sample)
			for _, inst := range insts {
				inst.Candidate.Set(true)
			}
			if _, err := k.Run(cfg.Steps); err != nil {
				return err
			}
			k.Shutdown()
			res.Record(k)
			ell := obs.AgreedLeader(ids(0, cfg.N))
			leader := fmt.Sprint(ell)
			if ell == omega.NoLeader {
				leader = "none"
			}
			res.AddRow(delay, leader, obs.StabilizedAt(), obs.Changes(), fab.Dropped())
			return nil
		}})
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}
