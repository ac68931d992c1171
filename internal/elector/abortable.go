package elector

import (
	"fmt"

	"tbwf/internal/omega"
	"tbwf/internal/omegaab"
	"tbwf/internal/prim"
)

// Abortable is the paper's Figure 4–6 construction: Ω∆ from abortable
// registers only (Section 6). It maintains no fault matrix — heartbeat
// freshness, not per-pair suspicion counters, drives its leadership rule —
// so FaultMatrix reports not-supported.
var Abortable = NewBuilder("abortable", buildAbortable)

func init() {
	Register(Abortable)
}

type abortableElector struct {
	sys *omegaab.System
}

func buildAbortable(sub prim.Substrate, cfg Config) (Elector, error) {
	sys, err := omegaab.Build(sub, cfg.RegisterOptions...)
	if err != nil {
		return nil, fmt.Errorf("elector: build Ω∆ (abortable): %w", err)
	}
	return &abortableElector{sys: sys}, nil
}

func (e *abortableElector) Name() string                 { return "abortable-registers" }
func (e *abortableElector) Instances() []*omega.Instance { return e.sys.Instances }
func (e *abortableElector) Leaders() []int               { return leaderVector(e.sys.Instances) }
func (e *abortableElector) FaultMatrix() ([][]int64, bool) {
	return nil, false
}

// AbortableSystem exposes the underlying omegaab.System when the elector
// is the abortable-registers construction — for abort-statistics taps.
func AbortableSystem(e Elector) (*omegaab.System, bool) {
	a, ok := e.(*abortableElector)
	if !ok {
		return nil, false
	}
	return a.sys, true
}

// leaderVector reads every endpoint's current leader output — a telemetry
// tap; it consumes no process steps.
func leaderVector(insts []*omega.Instance) []int {
	out := make([]int, len(insts))
	for p := range out {
		out[p] = insts[p].Leader.Get()
	}
	return out
}
