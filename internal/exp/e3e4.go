package exp

import (
	"fmt"

	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/omega"
	"tbwf/internal/sim"
)

// E3Config parameterizes the Ω∆ stabilization experiments.
type E3Config struct {
	// Ns are the system sizes to sweep (default 2, 4, 8 for E3;
	// E4 trims to ≤ 6).
	Ns []int
	// Steps is the per-run budget (default 1M for E3, 2M for E4).
	Steps int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

// omegaScenario is one stabilization scenario.
type omegaScenario struct {
	name string
	// sched builds the schedule for n processes.
	sched func(n int) sim.Schedule
	// drive optionally manipulates candidacies during the run.
	drive func(k *sim.Kernel, instances []*omega.Instance)
	// expectLeader restricts who may be the stable leader (nil = any
	// permanent candidate).
	expectLeader func(n int) []int
}

func omegaScenarios() []omegaScenario {
	return []omegaScenario{
		{
			name:  "all-timely-permanent",
			sched: func(n int) sim.Schedule { return sim.RoundRobin() },
		},
		{
			name: "one-timely-rest-untimely",
			sched: func(n int) sim.Schedule {
				return sim.Restrict(sim.RoundRobin(), untimelyGrowing(n-1))
			},
			expectLeader: func(n int) []int { return []int{n - 1} },
		},
		{
			name:  "repeated-candidate-churn",
			sched: func(n int) sim.Schedule { return sim.RoundRobin() },
			drive: func(k *sim.Kernel, instances []*omega.Instance) {
				// Process 0 joins and leaves the competition forever; the
				// self-punishment rule must keep it from holding
				// leadership.
				toggleCandidacy(k, instances[0], 20_000)
			},
			expectLeader: func(n int) []int { return ids(1, n) },
		},
	}
}

// runOmegaScenario runs one scenario on a pre-built Ω∆ deployment.
func runOmegaScenario(k *sim.Kernel, instances []*omega.Instance, sc omegaScenario, steps int64) (*omega.Observer, error) {
	obs := omega.NewObserver(instances)
	k.AfterStep(obs.Sample)
	for _, inst := range instances {
		inst.Candidate.Set(true)
	}
	if sc.drive != nil {
		sc.drive(k, instances)
	}
	if _, err := k.Run(steps); err != nil {
		return nil, err
	}
	k.Shutdown()
	return obs, nil
}

// summarizeOmega turns an observer into table cells: the stable leader (or
// "none"), the stabilization step, churn, and whether the leader is
// acceptable for the scenario.
func summarizeOmega(obs *omega.Observer, sc omegaScenario, n int, steps int64) (leader string, stab int64, churn int64, ok bool) {
	// Agreement among processes that are permanent candidates; under
	// churn, process 0 is excluded.
	members := ids(0, n)
	if sc.name == "repeated-candidate-churn" {
		members = ids(1, n)
	}
	ell := obs.AgreedLeader(members)
	leader = fmt.Sprint(ell)
	if ell == omega.NoLeader {
		return "none", obs.StabilizedAt(), obs.Changes(), false
	}
	ok = true
	if sc.expectLeader != nil {
		ok = false
		for _, want := range sc.expectLeader(n) {
			if ell == want {
				ok = true
			}
		}
	}
	return leader, obs.StabilizedAt(), obs.Changes(), ok
}

// E3OmegaAtomic measures stabilization of the Figure 3 Ω∆ (atomic
// registers) across system sizes and candidacy scenarios (DESIGN.md E3,
// validating Theorems 11/12).
func E3OmegaAtomic(cfg E3Config) (*Table, error) {
	if len(cfg.Ns) == 0 {
		cfg.Ns = []int{2, 4, 8}
	}
	if cfg.Steps == 0 {
		cfg.Steps = 1_000_000
	}
	t := &Table{
		ID:      "E3",
		Title:   fmt.Sprintf("Ω∆ from atomic registers: stabilization, %d steps/run", cfg.Steps),
		Columns: []string{"n", "scenario", "leader", "stabilized at", "leader changes", "as specified"},
		Notes: []string{
			"expected shape: a stable leader in every run; in 'one-timely' it is the timely process; under churn the flickering process never holds stable leadership",
		},
	}
	var scs []Scenario
	for _, n := range cfg.Ns {
		for _, sc := range omegaScenarios() {
			if sc.name == "repeated-candidate-churn" && n < 3 {
				continue
			}
			n, sc := n, sc
			scs = append(scs, Scenario{Name: fmt.Sprintf("n=%d/%s", n, sc.name), Run: func(res *Result) error {
				k := sim.New(n, sim.WithSchedule(sc.sched(n)))
				el, err := elector.Atomic.Build(deploy.Sim(k), elector.Config{})
				if err != nil {
					return err
				}
				obs, err := runOmegaScenario(k, el.Instances(), sc, cfg.Steps)
				if err != nil {
					return err
				}
				res.Record(k)
				leader, stab, churn, ok := summarizeOmega(obs, sc, n, cfg.Steps)
				res.AddRow(n, sc.name, leader, stab, churn, ok)
				return nil
			}})
		}
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}

// E4OmegaAbortable measures stabilization of the Figure 4–6 Ω∆ (abortable
// registers only, strongest adversary) plus its abort traffic (DESIGN.md
// E4, validating Theorem 13).
func E4OmegaAbortable(cfg E3Config) (*Table, error) {
	if len(cfg.Ns) == 0 {
		cfg.Ns = []int{2, 3, 4, 6}
	}
	if cfg.Steps == 0 {
		cfg.Steps = 2_000_000
	}
	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("Ω∆ from abortable registers: stabilization, %d steps/run", cfg.Steps),
		Columns: []string{"n", "scenario", "leader", "stabilized at", "leader changes", "abort rate", "as specified"},
		Notes: []string{
			"expected shape: same stabilization structure as E3 at higher step cost; abort rate is the fraction of register operations returning ⊥",
		},
	}
	var scs []Scenario
	for _, n := range cfg.Ns {
		for _, sc := range omegaScenarios() {
			if sc.name == "repeated-candidate-churn" && n < 3 {
				continue
			}
			n, sc := n, sc
			scs = append(scs, Scenario{Name: fmt.Sprintf("n=%d/%s", n, sc.name), Run: func(res *Result) error {
				steps := cfg.Steps
				if sc.name == "one-timely-rest-untimely" {
					steps *= 3 // untimely convergence needs the gaps to play out
				}
				k := sim.New(n, sim.WithSchedule(sc.sched(n)))
				el, err := elector.Abortable.Build(deploy.Sim(k), elector.Config{})
				if err != nil {
					return err
				}
				obs, err := runOmegaScenario(k, el.Instances(), sc, steps)
				if err != nil {
					return err
				}
				res.Record(k)
				leader, stab, churn, ok := summarizeOmega(obs, sc, n, steps)
				sys, _ := elector.AbortableSystem(el)
				ab := sys.Aborts()
				rate := 0.0
				if ops := ab.MsgOps + ab.HbOps; ops > 0 {
					rate = float64(ab.MsgAborts+ab.HbAborts) / float64(ops)
				}
				res.AddRow(n, sc.name, leader, stab, churn, rate, ok)
				return nil
			}})
		}
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}
