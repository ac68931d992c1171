package exp

import (
	"fmt"

	"tbwf/internal/core"
	"tbwf/internal/deploy"
	"tbwf/internal/sim"
)

// E1Config parameterizes the graceful-degradation sweep.
type E1Config struct {
	// N is the process count (default 8).
	N int
	// Steps is the per-run budget (default 3M).
	Steps int64
	// Wanted is the per-process operation target used for the
	// "satisfied" verdict (default 20).
	Wanted int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

func (c *E1Config) defaults() {
	if c.N == 0 {
		c.N = 8
	}
	if c.Steps == 0 {
		c.Steps = 5_000_000
	}
	if c.Wanted == 0 {
		c.Wanted = 20
	}
}

// E1Degradation runs the graceful-degradation sweep (DESIGN.md E1,
// validating Section 1.1): for k = 0..n, k timely processes and n−k
// untimely ones all hammer a TBWF counter for a fixed step budget. The
// paper predicts a staircase: every timely process completes its target
// (the k timely are wait-free in the run) regardless of how many untimely
// processes compete; untimely processes may lag arbitrarily.
//
// The untimely processes get the LOW ids: the (counter, id) tie-break
// favors them, so this is the adversarial corner.
func E1Degradation(cfg E1Config) (*Table, error) {
	cfg.defaults()
	t := &Table{
		ID:    "E1",
		Title: fmt.Sprintf("graceful degradation, n=%d, %d steps, target %d ops/proc", cfg.N, cfg.Steps, cfg.Wanted),
		Columns: []string{
			"k timely", "timely done", "timely min ops", "timely mean ops",
			"untimely mean ops", "TBWF holds",
		},
		Notes: []string{
			"expected shape: 'timely done' = k for every k (staircase to wait-freedom)",
			"untimely processes are allowed anything; they must merely not hinder the timely ones",
		},
	}
	scs := make([]Scenario, 0, cfg.N+1)
	for k := 0; k <= cfg.N; k++ {
		k := k
		scs = append(scs, Scenario{Name: fmt.Sprintf("k=%d", k), Run: func(res *Result) error {
			u := cfg.N - k // untimely count, at ids 0..u-1
			kern := sim.New(cfg.N, sim.WithSchedule(
				sim.Restrict(sim.RoundRobin(), untimelyGrowing(u))))
			st, err := BuildCounterStack(kern, deploy.BuildConfig{})
			if err != nil {
				return err
			}
			SpawnHammers(kern, st)
			if _, err := kern.Run(cfg.Steps); err != nil {
				return err
			}
			kern.Shutdown()
			res.Record(kern)

			completed := st.CompletedOps()
			wanted := make([]int64, cfg.N)
			for p := range wanted {
				wanted[p] = cfg.Wanted
			}
			timeliness, err := kern.Trace().Analyze()
			if err != nil {
				return err
			}
			rep, err := core.Evaluate(timeliness, completed, wanted, 256)
			if err != nil {
				return err
			}
			done, _ := rep.TimelyCompleted()
			timely := classify(completed, ids(u, cfg.N))
			untimely := classify(completed, ids(0, u))
			res.AddRow(k, fmt.Sprintf("%d/%d", done, k), timely.min, timely.mean(), untimely.mean(), rep.TBWFHolds())
			return nil
		}})
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}
