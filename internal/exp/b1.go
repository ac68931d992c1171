package exp

import (
	"fmt"

	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/omega"
	"tbwf/internal/sim"
)

// B1Config parameterizes the leader-elector bake-off.
type B1Config struct {
	// N is the system size (default 3).
	N int
	// Steps is the per-run budget (default 2M; slow-process runs get ×3).
	Steps int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

// bakeoffScenario is one candidacy/timeliness regime every elector faces.
type bakeoffScenario struct {
	name string
	// candidate reports process p's initial candidacy.
	candidate func(p int) bool
	// avail optionally slows processes (layered over round-robin).
	avail func(n int) map[int]sim.Availability
	// drive optionally manipulates candidacies during the run.
	drive func(k *sim.Kernel, instances []*omega.Instance)
	// members is the agreement set judged at the end of the run.
	members func(n int) []int
	// accept restricts who may be the stable leader (nil = any member).
	accept func(n int, ell int) bool
	// stepsFactor stretches the budget (0 = 1×).
	stepsFactor int64
}

func bakeoffScenarios() []bakeoffScenario {
	notZero := func(n, ell int) bool { return ell != 0 }
	tail := func(n int) []int { return ids(1, n) }
	return []bakeoffScenario{
		{
			name:      "all-timely-permanent",
			candidate: func(p int) bool { return true },
			members:   func(n int) []int { return ids(0, n) },
		},
		{
			name:      "non-candidate-0",
			candidate: func(p int) bool { return p != 0 },
			members:   tail,
			accept:    notZero,
		},
		{
			name:      "slow-process-0",
			candidate: func(p int) bool { return true },
			avail: func(n int) map[int]sim.Availability {
				return map[int]sim.Availability{0: sim.GrowingGaps(400, 2_000, 1.5)}
			},
			members:     tail,
			accept:      notZero,
			stepsFactor: 3, // the growing gaps need room to dominate
		},
		{
			name:      "repeated-candidate-churn",
			candidate: func(p int) bool { return true },
			drive: func(k *sim.Kernel, instances []*omega.Instance) {
				toggleCandidacy(k, instances[0], 20_000)
			},
			members: tail,
			accept:  notZero,
		},
	}
}

// B1ElectorBakeoff runs every registered elector through the same four
// candidacy/timeliness regimes on identical schedules and tabulates
// stabilization step, leader churn, and spec conformance — the bake-off
// behind the pluggable seam (EXPERIMENTS.md BAKEOFF; the live-service p99
// leg of the comparison runs through tbwf-serve/tbwf-load).
func B1ElectorBakeoff(cfg B1Config) (*Table, error) {
	if cfg.N == 0 {
		cfg.N = 3
	}
	if cfg.Steps == 0 {
		cfg.Steps = 2_000_000
	}
	t := &Table{
		ID:      "B1",
		Title:   fmt.Sprintf("leader-elector bake-off: n=%d, %d steps/run", cfg.N, cfg.Steps),
		Columns: []string{"elector", "scenario", "leader", "stabilized at", "leader changes", "as specified"},
		Notes: []string{
			"every elector runs the same schedules behind the same seam; 'as specified' means the members agreed on an acceptable leader (never the non-candidate, the slow process, or the churning process)",
			"stabilization and churn are the Ω∆ quality axes; the live-service p99 axis runs via tbwf-serve -elector ... + tbwf-load (see EXPERIMENTS.md BAKEOFF)",
		},
	}
	var scs []Scenario
	for _, name := range elector.Names() {
		builder, err := elector.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, sc := range bakeoffScenarios() {
			name, builder, sc := name, builder, sc
			scs = append(scs, Scenario{Name: fmt.Sprintf("%s/%s", name, sc.name), Run: func(res *Result) error {
				steps := cfg.Steps
				if sc.stepsFactor > 0 {
					steps *= sc.stepsFactor
				}
				sched := sim.Schedule(sim.RoundRobin())
				if sc.avail != nil {
					sched = sim.Restrict(sched, sc.avail(cfg.N))
				}
				k := sim.New(cfg.N, sim.WithSchedule(sched))
				el, err := builder.Build(deploy.Sim(k), elector.Config{})
				if err != nil {
					return err
				}
				insts := el.Instances()
				members := sc.members(cfg.N)
				obs := omega.NewObserver(insts) // full vector, for agreement
				// Stabilization and churn are judged at the members only, so
				// a churning process's own flapping output does not mask the
				// electors' differences.
				memberInsts := make([]*omega.Instance, len(members))
				for i, m := range members {
					memberInsts[i] = insts[m]
				}
				mobs := omega.NewObserver(memberInsts)
				k.AfterStep(obs.Sample)
				k.AfterStep(mobs.Sample)
				for p, inst := range insts {
					if sc.candidate(p) {
						inst.Candidate.Set(true)
					}
				}
				if sc.drive != nil {
					sc.drive(k, insts)
				}
				if _, err := k.Run(steps); err != nil {
					return err
				}
				k.Shutdown()
				res.Record(k)

				ell := obs.AgreedLeader(members)
				leader := fmt.Sprint(ell)
				ok := ell != omega.NoLeader
				if ok && sc.accept != nil {
					ok = sc.accept(cfg.N, ell)
				}
				if ell == omega.NoLeader {
					leader = "none"
				}
				if sc.name == "non-candidate-0" && el.Leaders()[0] != omega.NoLeader {
					ok = false // the Ncandidate must output ?
				}
				res.AddRow(name, sc.name, leader, mobs.StabilizedAt(), mobs.Changes(), ok)
				return nil
			}})
		}
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}
