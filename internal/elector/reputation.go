package elector

import (
	"fmt"

	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/register"
)

// Reputation is a penalty-based elector: every process accumulates a
// shared penalty score, and the leader is the active candidate with the
// lexicographically smallest (penalty, id). Two rules feed the scores —
// self-punishment on every candidacy (re-)entry, the paper's Figure 3
// lines 7–8 carried over verbatim, and heartbeat-stall suspicion with
// per-pair adaptive patience, the reputation-decay rule of the arXiv
// 2512.12409 line of work. Its fault matrix counts suspicions:
// matrix[p][q] is how many times p penalized q for a stalled heartbeat.
var Reputation = NewReputation(ReputationOptions{})

func init() {
	Register(Reputation, "reputation-penalty")
}

// reputationInitialPatience is the initial per-pair number of observation
// loops without a heartbeat advance before a candidate suspects a peer. It
// doubles on every suspicion, bounding false suspicions of timely peers.
const reputationInitialPatience = 16

// ReputationOptions selects deliberate ablations of the reputation
// elector for the bake-off's negative controls. The zero value is the
// sound elector.
type ReputationOptions struct {
	// NoPenalty removes every penalty write — both the self-punishment on
	// candidacy entry and the suspicion penalty. All scores stay 0, so the
	// smallest-id active candidate wins forever and perpetual candidacy
	// churn steals leadership on every re-entry — exactly the failure mode
	// the paper proves self-punishment prevents, and a non-Ω∆-correct
	// elector the churn-stability oracle must catch
	// (elector-reputation-nopenalty).
	NoPenalty bool
}

// NewReputation returns a Builder for the reputation elector with the
// given options. Ablated variants are for fuzz negative controls only and
// are not registered in the flag vocabulary.
func NewReputation(opts ReputationOptions) Builder {
	return NewBuilder("reputation", func(sub prim.Substrate, cfg Config) (Elector, error) {
		return buildReputation(sub, opts)
	})
}

type reputationElector struct {
	name      string
	instances []*omega.Instance
	// suspicions[p][q] counts p's heartbeat-stall suspicions of q — the
	// telemetry fault matrix.
	suspicions [][]*prim.Var[int64]
}

// reputationRegs is the shared-register wiring every process's task reads.
type reputationRegs struct {
	// hb[q] is q's heartbeat, written only by q, monotonically increasing.
	hb []prim.Register[int64]
	// cand[q] is q's candidacy advertisement (0/1), written only by q.
	cand []prim.Register[int64]
	// penalty[q] is q's shared penalty score, written by any process.
	penalty []prim.Register[int64]
}

func buildReputation(sub prim.Substrate, opts ReputationOptions) (Elector, error) {
	n := sub.N()
	if n < 2 {
		return nil, fmt.Errorf("elector: reputation: n = %d, need at least 2 processes", n)
	}
	regs := reputationRegs{
		hb:      make([]prim.Register[int64], n),
		cand:    make([]prim.Register[int64], n),
		penalty: make([]prim.Register[int64], n),
	}
	for p := 0; p < n; p++ {
		regs.hb[p] = register.SubstrateAtomic(sub, fmt.Sprintf("Rep/Hb[%d]", p), int64(0))
		regs.cand[p] = register.SubstrateAtomic(sub, fmt.Sprintf("Rep/Cand[%d]", p), int64(0))
		regs.penalty[p] = register.SubstrateAtomic(sub, fmt.Sprintf("Rep/Penalty[%d]", p), int64(0))
	}
	name := "reputation-penalty"
	if opts.NoPenalty {
		name = "reputation-penalty-nopenalty"
	}
	e := &reputationElector{
		name:       name,
		instances:  make([]*omega.Instance, n),
		suspicions: make([][]*prim.Var[int64], n),
	}
	for p := 0; p < n; p++ {
		e.instances[p] = omega.NewInstance(p)
		e.suspicions[p] = make([]*prim.Var[int64], n)
		for q := 0; q < n; q++ {
			e.suspicions[p][q] = prim.NewVar(int64(0))
		}
	}
	for p := 0; p < n; p++ {
		p := p
		sub.Spawn(p, fmt.Sprintf("reputation[%d]", p), func(proc prim.Proc) {
			reputationTask(proc, n, e.instances[p], regs, e.suspicions[p], opts)
		})
	}
	return e, nil
}

func (e *reputationElector) Name() string                 { return e.name }
func (e *reputationElector) Instances() []*omega.Instance { return e.instances }
func (e *reputationElector) Leaders() []int               { return leaderVector(e.instances) }
func (e *reputationElector) FaultMatrix() ([][]int64, bool) {
	n := len(e.instances)
	out := make([][]int64, n)
	for p := 0; p < n; p++ {
		out[p] = make([]int64, n)
		for q := 0; q < n; q++ {
			out[p][q] = e.suspicions[p][q].Get()
		}
	}
	return out, true
}

// reputationTask is one process's main loop. Non-candidates output ?,
// retract their advertisement, and stay out of the protocol; candidates
// heartbeat, watch their peers' heartbeats against per-pair adaptive
// patience, and elect the min-(penalty, id) unsuspected candidate.
func reputationTask(proc prim.Proc, n int, inst *omega.Instance,
	regs reputationRegs, suspicion []*prim.Var[int64], opts ReputationOptions) {
	me := inst.Me
	var (
		hbVal     int64
		lastHb    = make([]int64, n)
		miss      = make([]int64, n)
		patience  = make([]int64, n)
		suspected = make([]bool, n)
		penalty   = make([]int64, n)
		activeSet = make([]int, 0, n)
	)
	for q := 0; q < n; q++ {
		lastHb[q] = -1
		patience[q] = reputationInitialPatience
	}
	for {
		inst.Leader.Set(omega.NoLeader)
		regs.cand[me].Write(0)
		inst.Candidate.Await(proc, prim.IsTrue)
		// Self-punishment on (re-)entry (Figure 3 lines 7–8): a process
		// that joins and leaves the competition forever accumulates an
		// unbounded penalty and is eventually never chosen.
		if !opts.NoPenalty {
			regs.penalty[me].Write(regs.penalty[me].Read() + 1)
		}
		regs.cand[me].Write(1)
		for inst.Candidate.Get() {
			hbVal++
			regs.hb[me].Write(hbVal)
			activeSet = activeSet[:0]
			for q := 0; q < n; q++ {
				if q == me {
					activeSet = append(activeSet, q)
					continue
				}
				// A fresh heartbeat clears suspicion; a stall past the
				// pair's patience raises it once and doubles the patience,
				// so a timely peer is suspected only finitely often.
				if v := regs.hb[q].Read(); v != lastHb[q] {
					lastHb[q] = v
					miss[q] = 0
					suspected[q] = false
				} else if miss[q]++; miss[q] > patience[q] && !suspected[q] {
					suspected[q] = true
					patience[q] *= 2
					suspicion[q].Set(suspicion[q].Get() + 1)
					if !opts.NoPenalty {
						regs.penalty[q].Write(regs.penalty[q].Read() + 1)
					}
				}
				if !suspected[q] && regs.cand[q].Read() == 1 {
					activeSet = append(activeSet, q)
				}
			}
			for _, q := range activeSet {
				penalty[q] = regs.penalty[q].Read()
			}
			inst.Leader.Set(minByPenaltyThenID(activeSet, penalty))
			proc.Step()
		}
	}
}

// minByPenaltyThenID returns ℓ such that (penalty[ℓ], ℓ) is the
// lexicographic minimum over the given set — the same leader choice rule
// as Figure 3 line 14 and Figure 6 line 48.
func minByPenaltyThenID(set []int, penalty []int64) int {
	best := -1
	for _, q := range set {
		if best == -1 || penalty[q] < penalty[best] || (penalty[q] == penalty[best] && q < best) {
			best = q
		}
	}
	return best
}
