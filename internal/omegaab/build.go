package omegaab

import (
	"fmt"

	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/register"
)

// System is a fully wired Ω∆ deployment over abortable registers on any
// substrate. Build it with Build; the Figure 6 tasks are already spawned.
// The register matrices are kept for statistics (abort rates).
type System struct {
	N int
	// Instances[p] is process p's Ω∆ endpoint.
	Instances []*omega.Instance
	// MsgRegs[p][q] is MsgRegister[p,q]; Hb1[p][q] and Hb2[p][q] are
	// HbRegister1/2[p,q]. Diagonals are nil. On the simulation substrate
	// these are concrete *register.Abortable values (the typed fast path).
	MsgRegs  [][]prim.AbortableRegister[Msg]
	Hb1, Hb2 [][]prim.AbortableRegister[int64]
}

// Build wires the Figure 4–6 stack for all n processes of the substrate:
// 3·n·(n−1) single-writer single-reader abortable registers plus one main
// task per process. The register options (abort and effect policies) apply
// to every register; the default is the strongest adversary.
func Build(sub prim.Substrate, opts ...prim.AbOption) (*System, error) {
	n := sub.N()
	if n < 2 {
		return nil, fmt.Errorf("omegaab: substrate has %d processes, need at least 2", n)
	}
	s := &System{
		N:         n,
		Instances: make([]*omega.Instance, n),
		MsgRegs:   make([][]prim.AbortableRegister[Msg], n),
		Hb1:       make([][]prim.AbortableRegister[int64], n),
		Hb2:       make([][]prim.AbortableRegister[int64], n),
	}
	for p := 0; p < n; p++ {
		s.Instances[p] = omega.NewInstance(p)
		s.MsgRegs[p] = make([]prim.AbortableRegister[Msg], n)
		s.Hb1[p] = make([]prim.AbortableRegister[int64], n)
		s.Hb2[p] = make([]prim.AbortableRegister[int64], n)
	}
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if p == q {
				continue
			}
			role := prim.WithRoles(p, q)
			s.MsgRegs[p][q] = register.SubstrateAbortable(sub, fmt.Sprintf("MsgRegister[%d,%d]", p, q), Msg{}, append(opts, role)...)
			s.Hb1[p][q] = register.SubstrateAbortable(sub, fmt.Sprintf("HbRegister1[%d,%d]", p, q), int64(0), append(opts, role)...)
			s.Hb2[p][q] = register.SubstrateAbortable(sub, fmt.Sprintf("HbRegister2[%d,%d]", p, q), int64(0), append(opts, role)...)
		}
	}
	for p := 0; p < n; p++ {
		msgOut := make([]prim.AbortableRegister[Msg], n)
		msgIn := make([]prim.AbortableRegister[Msg], n)
		hbOut1 := make([]prim.AbortableRegister[int64], n)
		hbOut2 := make([]prim.AbortableRegister[int64], n)
		hbIn1 := make([]prim.AbortableRegister[int64], n)
		hbIn2 := make([]prim.AbortableRegister[int64], n)
		for q := 0; q < n; q++ {
			if q == p {
				continue
			}
			msgOut[q] = s.MsgRegs[p][q]
			msgIn[q] = s.MsgRegs[q][p]
			hbOut1[q] = s.Hb1[p][q]
			hbOut2[q] = s.Hb2[p][q]
			hbIn1[q] = s.Hb1[q][p]
			hbIn2[q] = s.Hb2[q][p]
		}
		msgr, err := NewMessenger(p, n, msgOut, msgIn, Msg{})
		if err != nil {
			return nil, fmt.Errorf("wire process %d: %w", p, err)
		}
		hb, err := NewHeartbeat(p, n, hbOut1, hbOut2, hbIn1, hbIn2)
		if err != nil {
			return nil, fmt.Errorf("wire process %d: %w", p, err)
		}
		task, err := Task(Config{N: n, Me: p, Endpoint: s.Instances[p], Msgr: msgr, Hb: hb})
		if err != nil {
			return nil, fmt.Errorf("wire process %d: %w", p, err)
		}
		sub.Spawn(p, fmt.Sprintf("omegaab[%d]", p), task)
	}
	return s, nil
}

// AbortStats sums abort counts over all the system's registers: total
// operations and total aborts, split by register family.
type AbortStats struct {
	MsgOps, MsgAborts int64
	HbOps, HbAborts   int64
}

// Aborts aggregates operation/abort counters across the register matrices.
func (s *System) Aborts() AbortStats {
	var a AbortStats
	for p := 0; p < s.N; p++ {
		for q := 0; q < s.N; q++ {
			if p == q {
				continue
			}
			ms, _ := prim.RegisterStats(s.MsgRegs[p][q])
			a.MsgOps += ms.Reads + ms.Writes
			a.MsgAborts += ms.ReadAborts + ms.WriteAborts
			for _, r := range []prim.AbortableRegister[int64]{s.Hb1[p][q], s.Hb2[p][q]} {
				hs, _ := prim.RegisterStats(r)
				a.HbOps += hs.Reads + hs.Writes
				a.HbAborts += hs.ReadAborts + hs.WriteAborts
			}
		}
	}
	return a
}
