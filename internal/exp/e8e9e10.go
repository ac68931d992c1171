package exp

import (
	"fmt"

	"tbwf/internal/consensus"
	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

// e8ScheduleSeed is the seeded random schedule every E8 row runs under,
// surfaced in the table notes (each scenario constructs its own schedule
// value: the rng inside is mutable and must not be shared across workers).
const e8ScheduleSeed = 5

// E8Config parameterizes the query-abortable object sweep.
type E8Config struct {
	// N is the client count (default 4).
	N int
	// OpsEach is the per-client operation target (default 40).
	OpsEach int
	// Steps is the run budget (default 40M; calls are cheap, budgets
	// generous so every fate settles).
	Steps int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

// E8QAObject sweeps abort/effect policies over the query-abortable object
// under concurrent clients and reports the call economy (DESIGN.md E8,
// validating the Section 7 substrate: wait-freedom with ⊥, exact query
// fates). Every client drives the Figure 8 protocol for a fixed number of
// operations; the table shows how many O_QA calls each completed operation
// cost and how often calls aborted.
func E8QAObject(cfg E8Config) (*Table, error) {
	if cfg.N == 0 {
		cfg.N = 4
	}
	if cfg.OpsEach == 0 {
		cfg.OpsEach = 40
	}
	if cfg.Steps == 0 {
		cfg.Steps = 40_000_000
	}
	t := &Table{
		ID:      "E8",
		Title:   fmt.Sprintf("query-abortable object under contention, n=%d, %d ops/client", cfg.N, cfg.OpsEach),
		Columns: []string{"abort policy", "effect policy", "ops done", "calls", "aborted calls", "calls/op", "final state ok"},
		Notes: []string{
			"expected shape: every policy preserves safety (final state equals applied ops); weaker adversaries cost fewer calls per operation",
			fmt.Sprintf("schedule seed %d for every row: the policies compete under one identical schedule", e8ScheduleSeed),
		},
	}
	type policy struct {
		name, effName string
		// opts builds the abort adversary; a factory because the
		// probabilistic policies hold mutable rngs that must not be shared
		// across parallel scenarios.
		opts func() []prim.AbOption
	}
	policies := []policy{
		{"always-abort", "no-effect", func() []prim.AbOption { return nil }},
		{"prob-0.9", "no-effect", func() []prim.AbOption {
			return []prim.AbOption{prim.WithAbortPolicy(register.ProbAbort(0.9, 41))}
		}},
		{"prob-0.5", "no-effect", func() []prim.AbOption {
			return []prim.AbOption{prim.WithAbortPolicy(register.ProbAbort(0.5, 42))}
		}},
		{"prob-0.5", "effect-0.5", func() []prim.AbOption {
			return []prim.AbOption{
				prim.WithAbortPolicy(register.ProbAbort(0.5, 43)),
				prim.WithEffectPolicy(register.ProbEffect(0.5, 44)),
			}
		}},
		{"prob-0.1", "no-effect", func() []prim.AbOption {
			return []prim.AbOption{prim.WithAbortPolicy(register.ProbAbort(0.1, 45))}
		}},
	}
	var scs []Scenario
	for _, pol := range policies {
		pol := pol
		scs = append(scs, Scenario{Name: pol.name + "/" + pol.effName, Run: func(res *Result) error {
			k := sim.New(cfg.N, sim.WithSchedule(sim.Random(e8ScheduleSeed, nil)))
			so, err := qa.NewSim[int64, int64, int64](k,
				qa.TypeFuncs[int64, int64, int64]{
					InitFn:  func() int64 { return 0 },
					ApplyFn: func(s, d int64) (int64, int64) { return s + d, s },
				}, pol.opts()...)
			if err != nil {
				return err
			}
			var done, calls, aborted int64
			for p := 0; p < cfg.N; p++ {
				p := p
				k.Spawn(p, "client", func(pp prim.Proc) {
					h := so.Handle(p)
					for i := 0; i < cfg.OpsEach; i++ {
						doQuery := false
						for {
							if doQuery {
								calls++
								_, out := h.Query()
								if out == qa.QueryApplied {
									done++
									break
								}
								if out == qa.QueryNotApplied {
									doQuery = false
								} else {
									aborted++
								}
							} else {
								calls++
								if _, ok := h.Invoke(1); ok {
									done++
									break
								}
								aborted++
								doQuery = true
							}
							pp.Step()
						}
					}
				})
			}
			if _, err := k.Run(cfg.Steps); err != nil {
				return err
			}
			// Solo verification of the final state.
			var final int64
			var okSync bool
			k.Spawn(0, "verifier", func(pp prim.Proc) {
				final, okSync = so.Handle(0).Sync()
			})
			if _, err := k.Run(5_000_000); err != nil {
				return err
			}
			k.Shutdown()
			res.Record(k)
			callsPerOp := 0.0
			if done > 0 {
				callsPerOp = float64(calls) / float64(done)
			}
			stateOK := okSync && final == done
			res.AddRow(pol.name, pol.effName, done, calls, aborted, callsPerOp, stateOK)
			return nil
		}})
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}

// E9Config parameterizes the consensus experiment.
type E9Config struct {
	// Ns are the system sizes (default 3, 5).
	Ns []int
	// Steps is the per-run budget (default 4M).
	Steps int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

// E9Consensus runs consensus from abortable registers across system sizes
// and timeliness mixes (DESIGN.md E9, validating the Section 1.2 closing
// remark). It reports when each class of process decided.
func E9Consensus(cfg E9Config) (*Table, error) {
	if len(cfg.Ns) == 0 {
		cfg.Ns = []int{3, 5}
	}
	if cfg.Steps == 0 {
		cfg.Steps = 4_000_000
	}
	t := &Table{
		ID:      "E9",
		Title:   fmt.Sprintf("consensus from abortable registers + Ω, %d steps/run", cfg.Steps),
		Columns: []string{"n", "scenario", "all decided", "agreement", "validity", "decided at (first/last)"},
		Notes: []string{
			"expected shape: agreement and validity always; termination for every correct process, with one timely process sufficing",
		},
	}
	var scs []Scenario
	for _, n := range cfg.Ns {
		for _, scenario := range []string{"all-timely", "one-timely"} {
			n, scenario := n, scenario
			scs = append(scs, Scenario{Name: fmt.Sprintf("n=%d/%s", n, scenario), Run: func(res *Result) error {
				sched := sim.Schedule(sim.RoundRobin())
				if scenario == "one-timely" {
					sched = sim.Restrict(sim.RoundRobin(), untimelyGrowing(n-1))
				}
				k := sim.New(n, sim.WithSchedule(sched))
				proposals := make([]int64, n)
				for p := range proposals {
					proposals[p] = int64(100 + p)
				}
				parts, err := consensus.Build(deploy.Sim(k), proposals, nil)
				if err != nil {
					return err
				}
				firstAt, lastAt := int64(-1), int64(-1)
				decidedKnown := make([]bool, n)
				k.AfterStep(func(step int64) {
					for p := 0; p < n; p++ {
						if !decidedKnown[p] && parts[p].Decided.Get() {
							decidedKnown[p] = true
							if firstAt < 0 {
								firstAt = step
							}
							lastAt = step
						}
					}
				})
				if _, err := k.Run(cfg.Steps); err != nil {
					return err
				}
				k.Shutdown()
				res.Record(k)
				val, all, agree := consensus.DecidedAll(parts, ids(0, n))
				valid := false
				for _, pr := range proposals {
					valid = valid || pr == val
				}
				res.AddRow(n, scenario, all, agree, valid && all, fmt.Sprintf("%d/%d", firstAt, lastAt))
				return nil
			}})
		}
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}

// E10Config parameterizes the abortable-communication experiment.
type E10Config struct {
	// Steps is the per-run budget (default 600k).
	Steps int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

// E10AbortableComm exercises the two Section 6 communication substrates
// in isolation (DESIGN.md E10, validating Figures 4 and 5): the Messenger
// delivers the final value of a variable that stops changing iff the
// writer is reader-timely, and the dual-register heartbeat classifies
// senders by their timeliness.
func E10AbortableComm(cfg E10Config) (*Table, error) {
	if cfg.Steps == 0 {
		cfg.Steps = 600_000
	}
	t := &Table{
		ID:      "E10",
		Title:   fmt.Sprintf("abortable-register communication substrates, %d steps/run", cfg.Steps),
		Columns: []string{"mechanism", "writer/sender", "outcome", "as specified"},
		Notes: []string{
			"expected shape: messenger delivers exactly when the writer is timely and the value freezes; heartbeat keeps a timely sender active, drops crashed and untimely ones",
		},
	}

	var scs []Scenario

	// Messenger scenarios: (writer regime) -> delivered final value?
	for _, sc := range []struct {
		name  string
		avail func() sim.Availability
		crash int64
		want  bool
	}{
		{"timely writer", nil, 0, true},
		// Bursts of 2 steps: the writer's single register write spans a
		// whole gap, so the reader's probes always overlap it and the
		// write itself keeps aborting — the run the paper describes where
		// an untimely writer communicates nothing.
		{"untimely writer", func() sim.Availability { return sim.GrowingGaps(2, 30_000, 2.0) }, 0, false},
		// Crash before the first write's response step: nothing was ever
		// communicated.
		{"crashed writer", nil, 2, false},
	} {
		sc := sc
		scs = append(scs, Scenario{Name: "messenger/" + sc.name, Run: func(res *Result) error {
			k := sim.New(2)
			if sc.avail != nil {
				k = sim.New(2, sim.WithSchedule(sim.Restrict(sim.RoundRobin(), map[int]sim.Availability{0: sc.avail()})))
			}
			msg, err := MessengerRig(k, false)
			if err != nil {
				return err
			}
			if sc.crash > 0 {
				k.CrashAt(0, sc.crash)
			}
			if _, err := k.Run(cfg.Steps); err != nil {
				return err
			}
			k.Shutdown()
			res.Record(k)
			delivered := msg.Got == MessengerValue
			outcome := "not delivered"
			if delivered {
				outcome = "delivered"
			}
			// For untimely/crashed writers delivery is not guaranteed but not
			// forbidden; the specified behaviour is only the timely case.
			asSpec := true
			if sc.want {
				asSpec = delivered
			} else if !delivered {
				outcome += " (none guaranteed)"
			}
			res.AddRow("messenger", sc.name, outcome, asSpec)
			return nil
		}})
	}

	// Heartbeat scenarios: (sender regime) -> receiver's final view.
	for _, sc := range []struct {
		name   string
		avail  func() sim.Availability
		crash  int64
		expect string
	}{
		{"timely sender", nil, 0, "active"},
		{"untimely sender", func() sim.Availability { return sim.GrowingGaps(100, 50_000, 2.0) }, 0, "suspected"},
		{"crashed sender", nil, 2_000, "suspected"},
	} {
		sc := sc
		scs = append(scs, Scenario{Name: "heartbeat/" + sc.name, Run: func(res *Result) error {
			k := sim.New(2)
			if sc.avail != nil {
				k = sim.New(2, sim.WithSchedule(sim.Restrict(sim.RoundRobin(), map[int]sim.Availability{0: sc.avail()})))
			}
			el, err := elector.Abortable.Build(deploy.Sim(k), elector.Config{})
			if err != nil {
				return err
			}
			insts := el.Instances()
			// Drive the full Ω∆ with both processes candidates: the heartbeat
			// layer is what classifies the sender.
			insts[0].Candidate.Set(true)
			insts[1].Candidate.Set(true)
			if sc.crash > 0 {
				k.CrashAt(0, sc.crash)
			}
			if _, err := k.Run(cfg.Steps); err != nil {
				return err
			}
			k.Shutdown()
			res.Record(k)
			// Receiver 1's verdict: does it believe 0 leads, or itself?
			leader := insts[1].Leader.Get()
			view := "suspected"
			if leader == 0 {
				view = "active"
			}
			res.AddRow("heartbeat", sc.name, view, view == sc.expect)
			return nil
		}})
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}
