package tbwf

// One benchmark per experiment of DESIGN.md §4 (E1–E10), each running a
// scaled-down instance of the experiment per iteration and reporting its
// headline quantity as a custom metric, plus two benchmarks of the
// simulation substrate itself. cmd/tbwf-bench regenerates the full tables;
// these give the per-scenario costs and ratios in benchmark form:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"testing"

	"tbwf/internal/baseline"
	"tbwf/internal/consensus"
	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/exp"
	"tbwf/internal/monitor"
	"tbwf/internal/objtype"
	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

// BenchmarkE1Degradation: TBWF counter, n=4, k timely processes; metric is
// mean completed ops per timely process per million steps (the staircase's
// height at each k).
func BenchmarkE1Degradation(b *testing.B) {
	const n, steps = 4, 400_000
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("timely=%d", k), func(b *testing.B) {
			var timelyOps int64
			for i := 0; i < b.N; i++ {
				u := n - k
				avail := map[int]sim.Availability{}
				for p := 0; p < u; p++ {
					avail[p] = sim.GrowingGaps(400, int64(600+200*p), 1.5)
				}
				kern := sim.New(n, sim.WithSchedule(sim.Restrict(sim.RoundRobin(), avail)), sim.WithScheduleTrace(false))
				st, err := exp.BuildCounterStack(kern, deploy.BuildConfig{})
				if err != nil {
					b.Fatal(err)
				}
				exp.SpawnHammers(kern, st)
				if _, err := kern.Run(steps); err != nil {
					b.Fatal(err)
				}
				kern.Shutdown()
				for p := u; p < n; p++ {
					timelyOps += st.Clients[p].Completed()
				}
			}
			b.ReportMetric(float64(timelyOps)/float64(b.N)/float64(k)/(steps/1e6), "ops/proc/Msteps")
		})
	}
}

// BenchmarkE2Baselines: timely-class throughput decay (second half over
// first half) for each system with one untimely process; a gracefully
// degrading system reports ≈1, the boosters ≪1.
func BenchmarkE2Baselines(b *testing.B) {
	const n, steps = 3, 1_200_000
	weak := register.WithAbortPolicy(register.ProbAbort(0.5, 23))
	sched := func() sim.Schedule {
		return sim.Restrict(sim.Random(17, nil), map[int]sim.Availability{
			0: sim.GrowingGaps(400, 800, 1.6),
		})
	}
	type sys struct {
		name  string
		build func(k *sim.Kernel) ([]func(prim.Proc), []func() int64, error)
	}
	mk := func(inv func(p int, pp prim.Proc), done func(p int) int64) ([]func(prim.Proc), []func() int64) {
		loops := make([]func(prim.Proc), n)
		counts := make([]func() int64, n)
		for p := 0; p < n; p++ {
			p := p
			loops[p] = func(pp prim.Proc) {
				for {
					inv(p, pp)
				}
			}
			counts[p] = func() int64 { return done(p) }
		}
		return loops, counts
	}
	systems := []sys{
		{"tbwf", func(k *sim.Kernel) ([]func(prim.Proc), []func() int64, error) {
			st, err := deploy.Build[int64, objtype.CounterOp, int64](deploy.Sim(k), objtype.Counter{}, deploy.BuildConfig{})
			if err != nil {
				return nil, nil, err
			}
			l, c := mk(func(p int, pp prim.Proc) { st.Clients[p].Invoke(pp, objtype.CounterOp{Delta: 1}) },
				func(p int) int64 { return st.Clients[p].Completed() })
			return l, c, nil
		}},
		{"ack-booster", func(k *sim.Kernel) ([]func(prim.Proc), []func() int64, error) {
			cs, err := baseline.BuildAck[int64, objtype.CounterOp, int64](deploy.Sim(k), objtype.Counter{}, weak)
			if err != nil {
				return nil, nil, err
			}
			l, c := mk(func(p int, pp prim.Proc) { cs[p].Invoke(pp, objtype.CounterOp{Delta: 1}) },
				func(p int) int64 { return cs[p].Completed() })
			return l, c, nil
		}},
	}
	for _, s := range systems {
		b.Run(s.name, func(b *testing.B) {
			var ratioSum float64
			for i := 0; i < b.N; i++ {
				k := sim.New(n, sim.WithSchedule(sched()), sim.WithScheduleTrace(false))
				loops, counts, err := s.build(k)
				if err != nil {
					b.Fatal(err)
				}
				for p := 0; p < n; p++ {
					k.Spawn(p, "client", loops[p])
				}
				if _, err := k.Run(steps / 2); err != nil {
					b.Fatal(err)
				}
				first := counts[1]() + counts[2]()
				if _, err := k.Run(steps / 2); err != nil {
					b.Fatal(err)
				}
				k.Shutdown()
				second := counts[1]() + counts[2]() - first
				if first > 0 {
					ratioSum += float64(second) / float64(first)
				}
			}
			b.ReportMetric(ratioSum/float64(b.N), "2nd/1st-half-ratio")
		})
	}
}

// BenchmarkE3OmegaAtomic: stabilization step of the Figure 3 Ω∆.
func BenchmarkE3OmegaAtomic(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var stab int64
			for i := 0; i < b.N; i++ {
				k := sim.New(n, sim.WithScheduleTrace(false))
				el, err := elector.Atomic.Build(deploy.Sim(k), elector.Config{})
				if err != nil {
					b.Fatal(err)
				}
				obs := omega.NewObserver(el.Instances())
				k.AfterStep(obs.Sample)
				for _, inst := range el.Instances() {
					inst.Candidate.Set(true)
				}
				if _, err := k.Run(300_000); err != nil {
					b.Fatal(err)
				}
				k.Shutdown()
				stab += obs.StabilizedAt()
			}
			b.ReportMetric(float64(stab)/float64(b.N), "stabilization-steps")
		})
	}
}

// BenchmarkE4OmegaAbortable: stabilization step of the Figure 4–6 Ω∆
// under the strongest abort adversary.
func BenchmarkE4OmegaAbortable(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var stab int64
			for i := 0; i < b.N; i++ {
				k := sim.New(n, sim.WithScheduleTrace(false))
				el, err := elector.Abortable.Build(deploy.Sim(k), elector.Config{})
				if err != nil {
					b.Fatal(err)
				}
				obs := omega.NewObserver(el.Instances())
				k.AfterStep(obs.Sample)
				for _, inst := range el.Instances() {
					inst.Candidate.Set(true)
				}
				if _, err := k.Run(400_000); err != nil {
					b.Fatal(err)
				}
				k.Shutdown()
				stab += obs.StabilizedAt()
			}
			b.ReportMetric(float64(stab)/float64(b.N), "stabilization-steps")
		})
	}
}

// BenchmarkE5Monitor: the activity monitor under a timely active peer;
// metric is fault suspicions per million steps (should be ~0 once the
// adaptive timeout settles).
func BenchmarkE5Monitor(b *testing.B) {
	const steps = 300_000
	var faults int64
	for i := 0; i < b.N; i++ {
		k := sim.New(2, sim.WithScheduleTrace(false))
		hb := register.NewAtomic(k, "Hb", int64(-1))
		m := monitor.NewPair(0, 1, hb)
		k.Spawn(1, "monitored", m.MonitoredTask())
		k.Spawn(0, "monitoring", m.MonitoringTask())
		m.Monitoring.Set(true)
		m.ActiveFor.Set(true)
		if _, err := k.Run(steps); err != nil {
			b.Fatal(err)
		}
		k.Shutdown()
		faults += m.FaultCntr.Get()
	}
	b.ReportMetric(float64(faults)/float64(b.N)/(steps/1e6), "suspicions/Msteps")
}

// BenchmarkE6WriteEfficiency: shared writes by non-leaders per million
// steps after stabilization (should be 0).
func BenchmarkE6WriteEfficiency(b *testing.B) {
	const n, steps = 3, 300_000
	var nonLeader int64
	for i := 0; i < b.N; i++ {
		k := sim.New(n, sim.WithWriteLog(true), sim.WithScheduleTrace(false))
		el, err := elector.Atomic.Build(deploy.Sim(k), elector.Config{})
		if err != nil {
			b.Fatal(err)
		}
		obs := omega.NewObserver(el.Instances())
		k.AfterStep(obs.Sample)
		for _, inst := range el.Instances() {
			inst.Candidate.Set(true)
		}
		if _, err := k.Run(steps); err != nil {
			b.Fatal(err)
		}
		k.Shutdown()
		ell := obs.AgreedLeader([]int{0, 1, 2})
		margin := obs.StabilizedAt() + 20_000
		for _, ev := range k.Trace().Writes() {
			if ev.Step >= margin && ev.Proc != ell {
				nonLeader++
			}
		}
	}
	b.ReportMetric(float64(nonLeader)/float64(b.N), "non-leader-writes")
}

// BenchmarkE7Canonical: top client's share of completions with and without
// the canonical wait (1.0 = monopolized).
func BenchmarkE7Canonical(b *testing.B) {
	const n, steps = 3, 800_000
	for _, nonCanonical := range []bool{false, true} {
		name := "canonical"
		if nonCanonical {
			name = "non-canonical"
		}
		b.Run(name, func(b *testing.B) {
			var shareSum float64
			for i := 0; i < b.N; i++ {
				k := sim.New(n, sim.WithScheduleTrace(false))
				st, err := exp.BuildCounterStack(k, deploy.BuildConfig{NonCanonical: nonCanonical})
				if err != nil {
					b.Fatal(err)
				}
				exp.SpawnHammers(k, st)
				if _, err := k.Run(steps); err != nil {
					b.Fatal(err)
				}
				k.Shutdown()
				var total, top int64
				for _, c := range st.CompletedOps() {
					total += c
					if c > top {
						top = c
					}
				}
				if total > 0 {
					shareSum += float64(top) / float64(total)
				}
			}
			b.ReportMetric(shareSum/float64(b.N), "top-share")
		})
	}
}

// BenchmarkE8QAObject: O_QA calls needed per completed operation under
// contention, per abort policy.
func BenchmarkE8QAObject(b *testing.B) {
	type pol struct {
		name string
		opts []register.AbOption
	}
	for _, pc := range []pol{
		{"prob-0.5", []register.AbOption{register.WithAbortPolicy(register.ProbAbort(0.5, 42))}},
		{"prob-0.1", []register.AbOption{register.WithAbortPolicy(register.ProbAbort(0.1, 45))}},
	} {
		b.Run(pc.name, func(b *testing.B) {
			var calls, done int64
			for i := 0; i < b.N; i++ {
				k := sim.New(3, sim.WithSchedule(sim.Random(5, nil)), sim.WithScheduleTrace(false))
				so, err := qa.NewSim[int64, int64, int64](k, qa.TypeFuncs[int64, int64, int64]{
					InitFn:  func() int64 { return 0 },
					ApplyFn: func(s, d int64) (int64, int64) { return s + d, s },
				}, pc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				for p := 0; p < 3; p++ {
					p := p
					k.Spawn(p, "client", func(pp prim.Proc) {
						h := so.Handle(p)
						for j := 0; j < 10; j++ {
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
									}
								} else {
									calls++
									if _, ok := h.Invoke(1); ok {
										done++
										break
									}
									doQuery = true
								}
								pp.Step()
							}
						}
					})
				}
				if _, err := k.Run(5_000_000); err != nil {
					b.Fatal(err)
				}
				k.Shutdown()
			}
			if done > 0 {
				b.ReportMetric(float64(calls)/float64(done), "calls/op")
			}
		})
	}
}

// BenchmarkE9Consensus: steps until the last correct process decides, with
// consensus and Ω∆ built from abortable registers only.
func BenchmarkE9Consensus(b *testing.B) {
	const n = 3
	var lastAt int64
	for i := 0; i < b.N; i++ {
		k := sim.New(n, sim.WithScheduleTrace(false))
		parts, err := consensus.Build(deploy.Sim(k), []int64{100, 101, 102}, nil)
		if err != nil {
			b.Fatal(err)
		}
		var last int64 = -1
		known := make([]bool, n)
		k.AfterStep(func(step int64) {
			for p := 0; p < n; p++ {
				if !known[p] && parts[p].Decided.Get() {
					known[p] = true
					last = step
				}
			}
		})
		if _, err := k.Run(1_000_000); err != nil {
			b.Fatal(err)
		}
		k.Shutdown()
		lastAt += last
	}
	b.ReportMetric(float64(lastAt)/float64(b.N), "steps-to-decide")
}

// BenchmarkE10AbortableComm: steps for the Figure 4 Messenger to deliver a
// final value over an always-abort-on-contention register.
func BenchmarkE10AbortableComm(b *testing.B) {
	var deliveredAt int64
	for i := 0; i < b.N; i++ {
		k := sim.New(2, sim.WithScheduleTrace(false))
		msg, err := exp.MessengerRig(k, false)
		if err != nil {
			b.Fatal(err)
		}
		at := int64(-1)
		k.AfterStep(func(step int64) {
			if at < 0 && msg.Got == exp.MessengerValue {
				at = step
			}
		})
		if _, err := k.Run(100_000); err != nil {
			b.Fatal(err)
		}
		k.Shutdown()
		deliveredAt += at
	}
	b.ReportMetric(float64(deliveredAt)/float64(b.N), "steps-to-deliver")
}

// BenchmarkKernelStep measures the kernel's per-step dispatch cost for
// spinning tasks across system sizes, with and without schedule-trace
// recording. With the trace off a step must not allocate (b.ReportAllocs
// makes `-benchmem` optional); with it on, the preallocated trace keeps
// appends amortized O(1).
func BenchmarkKernelStep(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		for _, trace := range []bool{true, false} {
			b.Run(fmt.Sprintf("n=%d/trace=%v", n, trace), func(b *testing.B) {
				b.ReportAllocs()
				k := sim.New(n, sim.WithScheduleTrace(trace))
				for p := 0; p < n; p++ {
					k.Spawn(p, "spin", func(pp prim.Proc) {
						for {
							pp.Step()
						}
					})
				}
				b.ResetTimer()
				if _, err := k.Run(int64(b.N)); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				k.Shutdown()
				s := k.Stats()
				if s.Steps > 0 {
					b.ReportMetric(100*float64(s.FastPathSteps)/float64(s.Steps), "fast-path-%")
				}
			})
		}
	}
}

// BenchmarkKernelThroughput measures raw simulation speed: scheduled steps
// per second for spinning tasks.
func BenchmarkKernelThroughput(b *testing.B) {
	k := sim.New(4, sim.WithScheduleTrace(false))
	for p := 0; p < 4; p++ {
		k.Spawn(p, "spin", func(pp prim.Proc) {
			for {
				pp.Step()
			}
		})
	}
	b.ResetTimer()
	if _, err := k.Run(int64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkRegisterOps measures simulated atomic register operation cost.
func BenchmarkRegisterOps(b *testing.B) {
	k := sim.New(1, sim.WithScheduleTrace(false))
	r := register.NewAtomic(k, "r", int64(0))
	k.Spawn(0, "w", func(pp prim.Proc) {
		for i := int64(0); ; i++ {
			r.Write(i)
		}
	})
	b.ResetTimer()
	// Each write is 2 steps.
	if _, err := k.Run(int64(b.N) * 2); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkFullTableQuick smoke-runs the complete experiment harness in
// quick mode once (guards against bit-rot of cmd/tbwf-bench's tables).
func BenchmarkFullTableQuick(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode")
	}
	for i := 0; i < b.N; i++ {
		for _, e := range []string{"E5", "E10", "A3"} { // the cheapest tables
			ex, err := exp.ByID(e)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ex.Run(exp.Options{Quick: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDeployBuild measures the composition root itself: the cost of
// wiring a full TBWF counter stack (elector, qa object, clients) on a fresh
// simulation kernel, for every registered elector. Build cost is off the
// hot path but bounds how cheaply the fuzzer can stand up a deployment per
// seed.
func BenchmarkDeployBuild(b *testing.B) {
	for _, builder := range []elector.Builder{elector.Atomic, elector.Abortable, elector.Nerio, elector.Reputation} {
		b.Run(builder.FlagName(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := sim.New(4, sim.WithScheduleTrace(false))
				if _, err := deploy.Build[int64, objtype.CounterOp, int64](
					deploy.Sim(k), objtype.Counter{}, deploy.BuildConfig{Elector: builder}); err != nil {
					b.Fatal(err)
				}
				k.Shutdown()
			}
		})
	}
}
