package net

import (
	"fmt"
	"testing"

	"tbwf/internal/elector"
	"tbwf/internal/elector/electortest"
	"tbwf/internal/prim/primtest"
	"tbwf/internal/sim"
)

// The fabric-backed net substrate passes the prim conformance suite: the
// same contract the simulation and real-time substrates present, with
// every register operation now an ABD quorum round over the deterministic
// message fabric. The harness pumps the kernel in slices, exactly like the
// sim harness in internal/deploy.
func TestFabricSubstrateConformance(t *testing.T) {
	primtest.Run(t, func(t *testing.T) *primtest.Harness {
		k := sim.New(3)
		sub, _, err := NewFabric(k, FabricConfig{Seed: 42, MaxDelay: 3}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return &primtest.Harness{
			Sub: sub,
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

// Every registered elector passes the elector conformance suite on the
// fabric-backed net substrate with zero algorithm-code changes — the
// acceptance criterion that the quorum registers really are drop-in
// substitutes for shared memory.
func TestElectorConformanceFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("electors need millions of fabric steps to stabilize; skipped in -short mode")
	}
	for _, name := range elector.Names() {
		builder, err := elector.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			electortest.Run(t, builder, func(t *testing.T) *electortest.Harness {
				k := sim.New(3)
				sub, _, err := NewFabric(k, FabricConfig{Seed: 17, MaxDelay: 2}, Config{})
				if err != nil {
					t.Fatal(err)
				}
				return &electortest.Harness{
					Sub: sub,
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
								return fmt.Errorf("kernel idle at step %d with the elector unsettled", res.Steps)
							}
						}
						return fmt.Errorf("step budget exhausted at %d with the elector unsettled", k.Step())
					},
				}
			})
		})
	}
}
