package deploy

import (
	"fmt"
	"testing"

	"tbwf/internal/prim/primtest"
	"tbwf/internal/sim"
)

// The simulation substrate (a kernel behind the register adapter, exactly
// what deploy.Build receives from Sim) passes the prim conformance suite.
// The harness pumps the kernel in slices so tests that finish early do not
// pay for the full budget, and treats an idle kernel whose done condition
// is unmet as a stall. The schedule is a pinned-seed random one, so the
// suite's Await case compares trace hashes of an irregular interleaving.
func TestSimSubstrateConformance(t *testing.T) {
	primtest.Run(t, func(t *testing.T) *primtest.Harness {
		k := sim.New(3, sim.WithSchedule(sim.Random(20080818, nil)))
		return &primtest.Harness{
			Sub: Sim(k),
			Run: func(done func() bool) error {
				for i := 0; i < 100; i++ {
					res, err := k.Run(100_000)
					if err != nil {
						return err
					}
					if done() {
						return nil
					}
					if res.Idle {
						return fmt.Errorf("kernel idle at step %d with work unfinished", res.Steps)
					}
				}
				return fmt.Errorf("step budget exhausted at %d with work unfinished", k.Step())
			},
			Crash:     k.Crash,
			TraceHash: k.TraceHash,
		}
	})
}
