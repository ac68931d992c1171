package elector

import (
	"fmt"

	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/register"
)

// Atomic is the paper's Figure 2 + Figure 3 construction: Ω∆ from activity
// monitors and atomic registers (Section 5). Its fault matrix is the
// monitors' faultCntr_p[q] counters.
var Atomic = NewAtomic(AtomicOptions{})

func init() {
	Register(Atomic)
}

// AtomicOptions selects deliberate ablations of the atomic-registers
// elector for negative controls. The zero value is the sound elector.
type AtomicOptions struct {
	// NoSelfPunish disables Figure 3's self-punishment rule (lines 7–8,
	// omega.BuildOptions.AblateSelfPunishment): a process that joins and
	// leaves the competition forever re-enters with the smallest counter
	// every time, so candidacy churn steals leadership on every re-entry —
	// the A2 ablation, which the churn-stability oracle must catch
	// (omega-churn-noselfpunish).
	NoSelfPunish bool
}

// NewAtomic returns a Builder for the atomic-registers elector with the
// given options. Ablated variants are for experiments and fuzz negative
// controls only and are not registered in the flag vocabulary.
func NewAtomic(opts AtomicOptions) Builder {
	return NewBuilder("atomic", func(sub prim.Substrate, cfg Config) (Elector, error) {
		dep, err := omega.BuildWith(sub.N(), sub, func(name string, init int64) prim.Register[int64] {
			return register.SubstrateAtomic(sub, name, init)
		}, omega.BuildOptions{AblateSelfPunishment: opts.NoSelfPunish})
		if err != nil {
			return nil, fmt.Errorf("elector: build Ω∆ (registers): %w", err)
		}
		name := "atomic-registers"
		if opts.NoSelfPunish {
			name = "atomic-registers-noselfpunish"
		}
		return &atomicElector{name: name, dep: dep}, nil
	})
}

// atomicElector wraps the omega.Deployment behind the Elector contract.
type atomicElector struct {
	name string
	dep  *omega.Deployment
}

func (e *atomicElector) Name() string                 { return e.name }
func (e *atomicElector) Instances() []*omega.Instance { return e.dep.Instances }
func (e *atomicElector) Leaders() []int               { return e.dep.Leaders() }
func (e *atomicElector) FaultMatrix() ([][]int64, bool) {
	return e.dep.FaultMatrix(), true
}

// Deployment exposes the underlying omega.Deployment when the elector is
// the atomic-registers construction — for tests and experiments that Peek
// at monitor internals. ok is false for every other implementation.
func Deployment(e Elector) (*omega.Deployment, bool) {
	a, ok := e.(*atomicElector)
	if !ok {
		return nil, false
	}
	return a.dep, true
}
