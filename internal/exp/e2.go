package exp

import (
	"fmt"

	"tbwf/internal/baseline"
	"tbwf/internal/deploy"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

// E2Config parameterizes the baseline comparison.
type E2Config struct {
	// N is the process count (default 3).
	N int
	// Steps is the per-run budget (default 4M).
	Steps int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

func (c *E2Config) defaults() {
	if c.N == 0 {
		c.N = 3
	}
	if c.Steps == 0 {
		c.Steps = 4_000_000
	}
}

// Schedule seeds for E2's seeded random bases, surfaced in the table notes
// (the scenarios construct their own schedule values: the rng inside a
// seeded schedule is mutable and must not be shared across workers).
const (
	e2BaseScheduleSeed     = 9
	e2UntimelyScheduleSeed = 17
)

// invokerClient is what the E2 drivers need from any of the systems.
type invokerClient interface {
	Invoke(p prim.Proc, op objtype.CounterOp) int64
	Completed() int64
}

// E2Baselines compares the TBWF stack against the non-gracefully-degrading
// boosters (DESIGN.md E2, validating Sections 1.2 and 2). Every system
// runs the same workload twice — all processes timely, then with process 0
// untimely — and the table reports the *timely* processes' completions in
// the first and second half of the budget. A gracefully degrading system
// keeps the two halves comparable; the boosters' second half collapses.
//
// The baselines run under a weaker (probabilistic) abort adversary than
// the TBWF stack tolerates — under the strongest adversary their
// unarbitrated phases livelock even with everyone timely. The panic
// booster's untimely run is a *constructed* run (the paper: "it is not
// difficult to construct runs..."): process 0's gaps begin exactly when it
// holds the panic priority.
func E2Baselines(cfg E2Config) (*Table, error) {
	cfg.defaults()
	t := &Table{
		ID:    "E2",
		Title: fmt.Sprintf("boosters vs TBWF, n=%d, %d steps, timely-class ops per half", cfg.N, cfg.Steps),
		Columns: []string{
			"system", "scenario", "1st half", "2nd half", "2nd/1st",
		},
		Notes: []string{
			"expected shape: TBWF ratio ≈ 1 in both scenarios; boosters' ratio ≈ 1 when all timely, ≪ 1 with one untimely process",
			"of-only guarantees nothing under contention; its numbers are luck, not a guarantee",
			fmt.Sprintf("schedule seeds: %d (all-timely base), %d (one-untimely base); rerunning with these seeds reproduces the rows exactly",
				e2BaseScheduleSeed, e2UntimelyScheduleSeed),
		},
	}

	// weak is the probabilistic abort adversary the baselines run under.
	// Constructed per scenario: the policy holds a mutable rng, so sharing
	// one instance across parallel scenarios would race.
	weak := func() register.AbOption {
		return register.WithAbortPolicy(register.ProbAbort(0.5, 23))
	}

	type setup struct {
		name          string
		build         func(k *sim.Kernel) ([]invokerClient, error)
		untimelySched func(clients *[]invokerClient) sim.Schedule
	}
	oblivious := func(*[]invokerClient) sim.Schedule {
		return sim.Restrict(sim.Random(e2UntimelyScheduleSeed, nil), map[int]sim.Availability{
			0: sim.GrowingGaps(400, 800, 1.6),
		})
	}
	setups := []setup{
		{
			name: "tbwf",
			build: func(k *sim.Kernel) ([]invokerClient, error) {
				st, err := BuildCounterStack(k, deploy.BuildConfig{})
				if err != nil {
					return nil, err
				}
				out := make([]invokerClient, cfg.N)
				for p := range out {
					out[p] = st.Clients[p]
				}
				return out, nil
			},
			untimelySched: oblivious,
		},
		{
			name: "of-only",
			build: func(k *sim.Kernel) ([]invokerClient, error) {
				cs, err := baseline.BuildOF[int64, objtype.CounterOp, int64](deploy.Sim(k), objtype.Counter{}, weak())
				if err != nil {
					return nil, err
				}
				out := make([]invokerClient, cfg.N)
				for p := range out {
					out[p] = cs[p]
				}
				return out, nil
			},
			untimelySched: oblivious,
		},
		{
			name: "panic-booster",
			build: func(k *sim.Kernel) ([]invokerClient, error) {
				cs, err := baseline.BuildPanic[int64, objtype.CounterOp, int64](deploy.Sim(k), objtype.Counter{}, weak())
				if err != nil {
					return nil, err
				}
				out := make([]invokerClient, cfg.N)
				for p := range out {
					out[p] = cs[p]
				}
				return out, nil
			},
			untimelySched: func(clients *[]invokerClient) sim.Schedule {
				// Constructed run: suppress process 0 (growing gaps with
				// recovery bursts) whenever it advertises a panic
				// timestamp.
				var gapUntil, burstUntil int64
				gap := int64(10_000)
				const burst = 5_000
				avail := func(step int64) bool {
					if step < gapUntil {
						return false
					}
					if step < burstUntil {
						return true
					}
					if len(*clients) > 0 {
						pc := (*clients)[0].(*baseline.PanicClient[int64, objtype.CounterOp, int64])
						if pc.Panicking() {
							gapUntil = step + gap
							gap *= 2
							burstUntil = gapUntil + burst
							return false
						}
					}
					return true
				}
				return sim.Restrict(sim.Random(e2UntimelyScheduleSeed, nil), map[int]sim.Availability{0: avail})
			},
		},
		{
			name: "ack-booster",
			build: func(k *sim.Kernel) ([]invokerClient, error) {
				cs, err := baseline.BuildAck[int64, objtype.CounterOp, int64](deploy.Sim(k), objtype.Counter{}, weak())
				if err != nil {
					return nil, err
				}
				out := make([]invokerClient, cfg.N)
				for p := range out {
					out[p] = cs[p]
				}
				return out, nil
			},
			untimelySched: oblivious,
		},
	}

	var scs []Scenario
	for _, s := range setups {
		for _, scenario := range []string{"all-timely", "one-untimely"} {
			s, scenario := s, scenario
			scs = append(scs, Scenario{Name: s.name + "/" + scenario, Run: func(res *Result) error {
				var clients []invokerClient
				var sched sim.Schedule = sim.Random(e2BaseScheduleSeed, nil)
				if scenario == "one-untimely" {
					sched = s.untimelySched(&clients)
				}
				k := sim.New(cfg.N, sim.WithSchedule(sched))
				cs, err := s.build(k)
				if err != nil {
					return err
				}
				clients = cs
				for p := 0; p < cfg.N; p++ {
					p := p
					k.Spawn(p, fmt.Sprintf("client[%d]", p), func(pp prim.Proc) {
						for {
							clients[p].Invoke(pp, objtype.CounterOp{Delta: 1})
						}
					})
				}
				if _, err := k.Run(cfg.Steps / 2); err != nil {
					return err
				}
				var first int64
				for p := 1; p < cfg.N; p++ { // timely class: everyone but 0
					first += clients[p].Completed()
				}
				if _, err := k.Run(cfg.Steps / 2); err != nil {
					return err
				}
				k.Shutdown()
				res.Record(k)
				var total int64
				for p := 1; p < cfg.N; p++ {
					total += clients[p].Completed()
				}
				second := total - first
				ratio := 0.0
				if first > 0 {
					ratio = float64(second) / float64(first)
				}
				res.AddRow(s.name, scenario, first, second, ratio)
				return nil
			}})
		}
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}
