package exp

import (
	"fmt"

	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/omega"
	"tbwf/internal/sim"
)

// E6Config parameterizes the write-efficiency measurement.
type E6Config struct {
	// N is the process count (default 4).
	N int
	// Steps is the run budget (default 600k).
	Steps int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

// E6WriteEfficiency measures shared-register write traffic before and
// after the Figure 3 Ω∆ stabilizes (DESIGN.md E6, validating the closing
// remark of Section 5.2: eventually only the leader — plus any repeated
// candidates — writes shared registers).
func E6WriteEfficiency(cfg E6Config) (*Table, error) {
	if cfg.N == 0 {
		cfg.N = 4
	}
	if cfg.Steps == 0 {
		cfg.Steps = 600_000
	}
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("write efficiency of Ω∆ (Figure 3), n=%d, %d steps", cfg.N, cfg.Steps),
		Columns: []string{"phase", "window steps", "writes", "writes/1k steps", "non-leader writes"},
		Notes: []string{
			"expected shape: after stabilization every shared write is the leader's heartbeat — non-leader writes drop to zero (total volume stays similar; the point is who writes)",
		},
	}
	scs := []Scenario{{Name: "write-log", Run: func(res *Result) error {
		k := sim.New(cfg.N, sim.WithWriteLog(true))
		el, err := elector.Atomic.Build(deploy.Sim(k), elector.Config{})
		if err != nil {
			return err
		}
		obs := omega.NewObserver(el.Instances())
		k.AfterStep(obs.Sample)
		for _, inst := range el.Instances() {
			inst.Candidate.Set(true)
		}
		if _, err := k.Run(cfg.Steps); err != nil {
			return err
		}
		k.Shutdown()
		res.Record(k)

		stable := obs.StabilizedAt() + 20_000 // settling margin
		ell := obs.AgreedLeader(ids(0, cfg.N))

		var before, after int64
		writersAfter := map[int]int64{}
		for _, ev := range k.Trace().Writes() {
			if ev.Step < stable {
				before++
			} else {
				after++
				writersAfter[ev.Proc]++
			}
		}
		beforeWindow := stable
		afterWindow := cfg.Steps - stable
		perK := func(cnt, window int64) float64 {
			if window <= 0 {
				return 0
			}
			return 1000 * float64(cnt) / float64(window)
		}
		nonLeader := int64(0)
		for proc, c := range writersAfter {
			if proc != ell {
				nonLeader += c
			}
		}
		res.AddNote("stable leader %d from step %d (plus 20k margin)", ell, obs.StabilizedAt())
		res.AddRow("before stabilization", beforeWindow, before, perK(before, beforeWindow), "-")
		res.AddRow("after stabilization", afterWindow, after, perK(after, afterWindow), nonLeader)
		return nil
	}}}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}

// E7Config parameterizes the canonical-use fairness experiment.
type E7Config struct {
	// N is the process count (default 3).
	N int
	// Steps is the run budget (default 3M).
	Steps int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

// E7Canonical contrasts the canonical Figure 7 protocol with the variant
// that skips the line 2 wait (DESIGN.md E7, validating Theorems 7/8 and the
// monopolization discussion of Section 7). All processes are timely and
// hammer the object; the table reports how completions distribute.
func E7Canonical(cfg E7Config) (*Table, error) {
	if cfg.N == 0 {
		cfg.N = 3
	}
	if cfg.Steps == 0 {
		cfg.Steps = 3_000_000
	}
	t := &Table{
		ID:      "E7",
		Title:   fmt.Sprintf("canonical vs non-canonical use of Ω∆, n=%d, %d steps", cfg.N, cfg.Steps),
		Columns: []string{"protocol", "ops per process", "total", "top share"},
		Notes: []string{
			"expected shape: canonical ≈ uniform; non-canonical monopolized by one client (top share → 1)",
		},
	}
	var scs []Scenario
	for _, nonCanonical := range []bool{false, true} {
		nonCanonical := nonCanonical
		name := "canonical"
		if nonCanonical {
			name = "non-canonical"
		}
		scs = append(scs, Scenario{Name: name, Run: func(res *Result) error {
			k := sim.New(cfg.N)
			st, err := BuildCounterStack(k, deploy.BuildConfig{NonCanonical: nonCanonical})
			if err != nil {
				return err
			}
			SpawnHammers(k, st)
			if _, err := k.Run(cfg.Steps); err != nil {
				return err
			}
			k.Shutdown()
			res.Record(k)
			completed := st.CompletedOps()
			var total, top int64
			for _, c := range completed {
				total += c
				if c > top {
					top = c
				}
			}
			share := 0.0
			if total > 0 {
				share = float64(top) / float64(total)
			}
			res.AddRow(name, fmt.Sprint(completed), total, share)
			return nil
		}})
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}
