package explore

import (
	"tbwf/internal/prim"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

// The frontier/* targets are purpose-built probes for the (Φ,Δ) frontier
// map: a two-process heartbeat monitor whose *only* tunable is its timeout
// policy, run exclusively under the DLS adversary. The sender bumps an
// atomic register on every step it gets; the receiver polls it and
// suspects the sender after T consecutive unchanged polls. Every suspicion
// here is false — the sender never crashes — so the oracle simply counts
// second-half suspicion onsets.
//
// Why this shape: under DLS(Φ,Δ) the gap between heartbeat arrivals at the
// receiver is bounded by the interarrival the adversary can legally
// manufacture — the sender needs 2+Δ of its own steps per write (the two
// linearization half-steps plus the effect delay) and can be frozen for up
// to Φ·n global steps between them. A timeout calibrated for one (Φ,Δ)
// point is therefore *exactly* the kind of assumption the paper's
// graceful-degradation story is about:
//
//   - monitor-adaptive (sound) doubles T on every false suspicion, the
//     EPFD-style adaptation, so its onset count is logarithmic and lands in
//     the first half at every swept cell — it passes across the whole map;
//   - monitor-fixed (ablated) pins T to Guard(Φ=1,Δ=0) = 5, the mildest
//     cell's bound, so its failure rate climbs along *both* axes;
//   - monitor-fixed-wide (ablated) pins T to Guard(Φ=4,Δ=8) = 22: the same
//     defect with the frontier pushed outward — it passes a band of mild
//     cells that monitor-fixed already fails, and still collapses at high Δ.
//
// Together they make the frontier map legible: one surface that stays
// green, two that degrade in the direction the timing parameters predict.

const (
	// frontierSteps is the budget: small enough that a full grid sweep is
	// cheap, large enough that the second-half window has hundreds of eras.
	frontierSteps = 150_000
	// frontierMinSteps is the vacuity floor — below this the adaptive
	// monitor has not finished doubling and the onset counts mean nothing.
	frontierMinSteps = 60_000
	// frontierTolerance allows the stray late onset an era switch can cause
	// even after adaptation (observed 0–1; the fixed monitors produce tens).
	frontierTolerance = 3
)

// frontierMonitorRig wires the two-process probe. timeout is the initial
// suspicion threshold in receiver polls; adaptive doubles it on every
// false suspicion (the sound policy), a fixed monitor keeps it forever.
func frontierMonitorRig(timeout int64, adaptive bool) Rig {
	return func(k *sim.Kernel, env *Env) ([]Judge, error) {
		hb := register.NewAtomic(k, "Hb", int64(0))
		k.Spawn(0, "sender", func(p prim.Proc) {
			var c int64
			for {
				c++
				hb.Write(c)
			}
		})
		half := env.Steps / 2
		var (
			polls, beats   int64 // receiver polls / observed value changes
			onsets         int64 // false-suspicion onsets, second half only
			suspected      bool
			finalTimeout   = timeout
			worstUnchanged int64
		)
		k.Spawn(1, "receiver", func(p prim.Proc) {
			var last, unchanged int64
			for {
				v := hb.Read()
				polls++
				if v != last {
					last = v
					beats++
					if suspected && adaptive {
						// A heartbeat from a suspected sender proves the timeout
						// too tight for this timing regime; double it (EPFD96).
						finalTimeout *= 2
					}
					suspected = false
					unchanged = 0
					continue
				}
				unchanged++
				if unchanged > worstUnchanged {
					worstUnchanged = unchanged
				}
				if !suspected && unchanged > finalTimeout {
					suspected = true
					if k.Step() >= half {
						onsets++
					}
				}
			}
		})
		return []Judge{func(k *sim.Kernel, res sim.RunResult) Judgement {
			if env.Steps < frontierMinSteps {
				return vacuousf("budget %d below %d: adaptation window incomplete", env.Steps, frontierMinSteps)
			}
			if k.Crashed(0) || k.Crashed(1) {
				return vacuousf("a probe process crashed: onsets are not attributable to timing")
			}
			if beats == 0 || polls == 0 {
				return vacuousf("no heartbeats observed (%d polls)", polls)
			}
			if onsets > frontierTolerance {
				return failf("%d false-suspicion onsets in the second half (timeout %d→%d, worst unchanged run %d, %d beats/%d polls)",
					onsets, timeout, finalTimeout, worstUnchanged, beats, polls)
			}
			return okf("%d false-suspicion onsets ≤ tolerance %d (timeout %d→%d, worst unchanged run %d)",
				onsets, frontierTolerance, timeout, finalTimeout, worstUnchanged)
		}}, nil
	}
}
