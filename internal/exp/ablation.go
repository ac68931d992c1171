package exp

import (
	"fmt"

	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/omega"
	"tbwf/internal/omegaab"
	"tbwf/internal/prim"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

// This file holds the ablation experiments of DESIGN.md §7: each removes
// one design element the paper's algorithms rely on and demonstrates the
// failure the element prevents.

// SlowSender makes process 0 (the A1 heartbeat sender) available only in
// 1-step bursts with geometrically growing gaps — correct but so slow that
// every register write spans a whole gap.
func SlowSender() map[int]sim.Availability {
	return map[int]sim.Availability{0: sim.GrowingGaps(1, 2_000, 1.3)}
}

// HeartbeatProbe is what HeartbeatRig samples after every step past its
// from mark: how often the receiver had a view of the sender at all, and
// how often that view was "active".
type HeartbeatProbe struct{ Samples, Active int64 }

// HeartbeatRig wires the A1 scenario on a two-process kernel (whose
// schedule the caller restricts with SlowSender): process 0 sends Figure
// 5 heartbeats, process 1 receives them, and the probe samples the
// receiver's view of the sender over the steps after from. With single
// set, both sides run the naive protocol — one register instead of two.
// Shared by A1DualHeartbeat and the heartbeat-* fuzz targets.
func HeartbeatRig(k *sim.Kernel, single bool, from int64) (*HeartbeatProbe, error) {
	r1 := register.NewAbortableSWSR(k, "Hb1", int64(0), 0, 1)
	r2 := register.NewAbortableSWSR(k, "Hb2", int64(0), 0, 1)
	hb, err := omegaab.NewHeartbeat(1, 2,
		make([]prim.AbortableRegister[int64], 2), make([]prim.AbortableRegister[int64], 2),
		[]prim.AbortableRegister[int64]{r1, nil}, []prim.AbortableRegister[int64]{r2, nil})
	if err != nil {
		return nil, err
	}
	if single {
		hb.AblateSingleRegister()
	}
	// Sender: the naive single-register protocol writes one register;
	// the paper's protocol alternates both.
	k.Spawn(0, "sender", func(p prim.Proc) {
		var c int64
		for {
			c++
			r1.Write(c)
			if !single {
				r2.Write(c)
			}
		}
	})
	var active []bool
	k.Spawn(1, "receiver", func(p prim.Proc) {
		for {
			active = hb.Receive()
			p.Step()
		}
	})
	probe := &HeartbeatProbe{}
	k.AfterStep(func(step int64) {
		if step > from && active != nil {
			probe.Samples++
			if active[0] {
				probe.Active++
			}
		}
	})
	return probe, nil
}

// A1Config parameterizes the dual-heartbeat ablation.
type A1Config struct {
	// Steps is the run budget (default 400k).
	Steps int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

// A1DualHeartbeat contrasts the paper's dual-register heartbeat (Figure 5)
// with a naive single-register variant. The sender is correct but so slow
// that each of its register writes spans an entire scheduling gap; every
// read of the in-flight register aborts, and an abort alone only proves
// liveness, not timeliness. The single-register receiver therefore keeps
// the sender "active" essentially forever, while the dual-register receiver
// notices the other register going stale and suspects it.
func A1DualHeartbeat(cfg A1Config) (*Table, error) {
	if cfg.Steps == 0 {
		cfg.Steps = 400_000
	}
	t := &Table{
		ID:      "A1",
		Title:   fmt.Sprintf("ablation: dual vs single heartbeat registers, %d steps", cfg.Steps),
		Columns: []string{"receiver", "suffix samples active", "verdict"},
		Notes: []string{
			"sender is correct but each write spans a whole scheduling gap (bursts of 1 step)",
			"expected shape: the dual-register receiver suspects the slow sender; the single-register one is fooled by aborts",
		},
	}
	var scs []Scenario
	for _, variant := range []string{"dual (paper)", "single (ablated)"} {
		variant := variant
		scs = append(scs, Scenario{Name: variant, Run: func(res *Result) error {
			k := sim.New(2, sim.WithSchedule(sim.Restrict(sim.RoundRobin(), SlowSender())))
			probe, err := HeartbeatRig(k, variant != "dual (paper)", cfg.Steps/2)
			if err != nil {
				return err
			}
			if _, err := k.Run(cfg.Steps); err != nil {
				return err
			}
			k.Shutdown()
			res.Record(k)
			frac := float64(probe.Active) / float64(max(probe.Samples, 1))
			verdict := "suspects the slow sender"
			if frac > 0.5 {
				verdict = "fooled: believes the sender timely"
			}
			res.AddRow(variant, fmt.Sprintf("%.0f%%", 100*frac), verdict)
			return nil
		}})
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}

// ChurnRig wires the A2 scenario: every process a candidate, process 0
// toggling its candidacy every period steps forever, and an observer on
// the permanent candidates (processes 1..n-1) only. Shared by
// A2SelfPunishment and the *-churn fuzz targets.
func ChurnRig(k *sim.Kernel, builder elector.Builder, period int64) (elector.Elector, *omega.Observer, error) {
	el, err := builder.Build(deploy.Sim(k), elector.Config{})
	if err != nil {
		return nil, nil, err
	}
	insts := el.Instances()
	obs := omega.NewObserver(insts[1:])
	k.AfterStep(obs.Sample)
	for _, inst := range insts {
		inst.Candidate.Set(true)
	}
	toggleCandidacy(k, insts[0], period)
	return el, obs, nil
}

// toggleCandidacy makes inst join and leave the competition every period
// steps, forever.
func toggleCandidacy(k *sim.Kernel, inst *omega.Instance, period int64) {
	k.AfterStep(func(step int64) {
		if step%period == 0 {
			inst.Candidate.Set(!inst.Candidate.Get())
		}
	})
}

// A2Config parameterizes the self-punishment ablation.
type A2Config struct {
	// Steps is the run budget (default 1.2M).
	Steps int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

// A2SelfPunishment contrasts Figure 3 with and without its self-punishment
// rule (lines 7–8). Process 0 joins and leaves the competition forever;
// with the rule its counter grows on every re-entry and the other
// candidates' leadership stabilizes; without it process 0 re-enters with
// the smallest counter every time and leadership at the permanent
// candidates oscillates forever — exactly the scenario the paper gives for
// why the rule exists.
func A2SelfPunishment(cfg A2Config) (*Table, error) {
	if cfg.Steps == 0 {
		cfg.Steps = 1_200_000
	}
	t := &Table{
		ID:      "A2",
		Title:   fmt.Sprintf("ablation: Figure 3 self-punishment under candidacy churn, %d steps", cfg.Steps),
		Columns: []string{"variant", "leader changes 1st half", "2nd half", "verdict"},
		Notes: []string{
			"changes counted at the two permanent candidates only; process 0 toggles candidacy every 20k steps throughout",
			"expected shape: with self-punishment churn stops influencing leadership; without it every re-entry steals leadership back",
		},
	}
	var scs []Scenario
	for _, ablate := range []bool{false, true} {
		ablate := ablate
		name := "with self-punishment"
		if ablate {
			name = "without (ablated)"
		}
		scs = append(scs, Scenario{Name: name, Run: func(res *Result) error {
			k := sim.New(3)
			_, obs, err := ChurnRig(k, elector.NewAtomic(elector.AtomicOptions{NoSelfPunish: ablate}), 20_000)
			if err != nil {
				return err
			}
			if _, err := k.Run(cfg.Steps / 2); err != nil {
				return err
			}
			firstHalf := obs.Changes()
			if _, err := k.Run(cfg.Steps / 2); err != nil {
				return err
			}
			k.Shutdown()
			res.Record(k)
			secondHalf := obs.Changes() - firstHalf
			verdict := "stable despite churn"
			if secondHalf > 4 {
				verdict = "oscillates forever"
			}
			res.AddRow(name, firstHalf, secondHalf, verdict)
			return nil
		}})
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}

// MessengerValue is the final value the A3 writer ships.
const MessengerValue = 99

// MessengerRun is the A3 scenario's observable state: the value the
// reader last saw and the one register it travels through.
type MessengerRun struct {
	Got int
	Reg *register.Abortable[int]
}

// MessengerRig wires the A3 scenario on a two-process kernel: a Figure 4
// writer (process 0) shipping MessengerValue to a reader (process 1)
// through one abortable register; with ablate set the reader loses its
// adaptive back-off. Shared by A3ReaderBackoff and the messenger-* fuzz
// targets.
func MessengerRig(k *sim.Kernel, ablate bool) (*MessengerRun, error) {
	run := &MessengerRun{Reg: register.NewAbortableSWSR(k, "Msg[0,1]", 0, 0, 1)}
	w, err := omegaab.NewMessenger(0, 2,
		[]prim.AbortableRegister[int]{nil, run.Reg}, make([]prim.AbortableRegister[int], 2), 0)
	if err != nil {
		return nil, err
	}
	r, err := omegaab.NewMessenger(1, 2,
		make([]prim.AbortableRegister[int], 2), []prim.AbortableRegister[int]{run.Reg, nil}, 0)
	if err != nil {
		return nil, err
	}
	if ablate {
		r.AblateBackoff()
	}
	k.Spawn(0, "writer", func(p prim.Proc) {
		msg := []int{0, MessengerValue}
		for {
			w.WriteMsgs(msg)
			p.Step()
		}
	})
	k.Spawn(1, "reader", func(p prim.Proc) {
		for {
			run.Got = r.ReadMsgs()[0]
			p.Step()
		}
	})
	return run, nil
}

// A3Config parameterizes the reader back-off ablation.
type A3Config struct {
	// Steps is the run budget (default 300k).
	Steps int64
	// Parallel is the scenario worker-pool size (<= 0: one per CPU).
	Parallel int
}

// A3ReaderBackoff contrasts Figure 4's WriteMsgs/ReadMsgs with and without
// the reader's adaptive back-off, under a strictly alternating schedule
// that phase-locks the writer and the reader. Every write then overlaps a
// read: without back-off both sides abort forever and the value is never
// delivered; with back-off the reader's probes become sparse, the writer
// eventually writes solo, and the value lands.
func A3ReaderBackoff(cfg A3Config) (*Table, error) {
	if cfg.Steps == 0 {
		cfg.Steps = 300_000
	}
	t := &Table{
		ID:      "A3",
		Title:   fmt.Sprintf("ablation: Figure 4 reader back-off under a phase-locked schedule, %d steps", cfg.Steps),
		Columns: []string{"variant", "outcome", "reader aborts", "verdict"},
		Notes: []string{
			"schedule strictly alternates the two processes, so operation windows always overlap",
			"expected shape: with back-off the final value is delivered; without it the messenger starves",
		},
	}
	var scs []Scenario
	for _, ablate := range []bool{false, true} {
		ablate := ablate
		scs = append(scs, Scenario{Name: variantName(ablate), Run: func(res *Result) error {
			k := sim.New(2, sim.WithSchedule(sim.Pattern(0, 1)))
			msg, err := MessengerRig(k, ablate)
			if err != nil {
				return err
			}
			if _, err := k.Run(cfg.Steps); err != nil {
				return err
			}
			k.Shutdown()
			res.Record(k)
			outcome := "not delivered"
			verdict := "starves"
			if msg.Got == MessengerValue {
				outcome = "delivered"
				verdict = "back-off breaks the phase lock"
			}
			res.AddRow(variantName(ablate), outcome, msg.Reg.Stats().ReadAborts, verdict)
			return nil
		}})
	}
	if err := RunScenarios(t, cfg.Parallel, scs); err != nil {
		return nil, err
	}
	return t, nil
}

func variantName(ablate bool) string {
	if ablate {
		return "without back-off (ablated)"
	}
	return "with back-off (paper)"
}
