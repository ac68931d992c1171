package omega

import (
	"fmt"

	"tbwf/internal/monitor"
	"tbwf/internal/prim"
)

// RegistersConfig wires one process's Figure 3 task: its Ω∆ endpoint, its
// side of every activity monitor, and the shared counter registers.
//
// For each peer q ≠ p, process p holds the monitoring side of A(p,q)
// (inputs Monitoring[q], outputs Status[q] and FaultCntr[q]) and the
// monitored side of A(q,p) (input ActiveFor[q]). CounterReg[q] is the
// shared atomic register CounterRegister[q], which counts roughly how many
// times q has been considered "bad" for leadership; it is written by any
// process (multi-writer), read by all.
//
// The self slot (index p) of the four monitor slices is unused and may be
// nil: the paper notes that A(p,p) is trivial, and Figure 3 always places p
// itself in its active set.
type RegistersConfig struct {
	N  int
	Me int

	// Endpoint is the process's Ω∆ input/output pair.
	Endpoint *Instance

	// Monitoring[q] is A(p,q)'s input at p.
	Monitoring []*prim.Var[bool]
	// Status[q] and FaultCntr[q] are A(p,q)'s outputs at p.
	Status    []*prim.Var[monitor.Status]
	FaultCntr []*prim.Var[int64]
	// ActiveFor[q] is A(q,p)'s input at p: "p is active for q".
	ActiveFor []*prim.Var[bool]

	// CounterReg[q] is the shared register CounterRegister[q].
	CounterReg []prim.Register[int64]

	// AblateSelfPunishment skips Figure 3 lines 7–8 (the counter bump on
	// every candidacy entry). The paper warns that without it a process
	// that joins and leaves the competition forever keeps the smallest
	// counter and leadership oscillates forever; experiment A2
	// demonstrates exactly that. Never enable it outside experiments.
	AblateSelfPunishment bool
}

func (c *RegistersConfig) validate() error {
	if c.N < 2 {
		return fmt.Errorf("omega: n = %d, need at least 2 processes", c.N)
	}
	if c.Me < 0 || c.Me >= c.N {
		return fmt.Errorf("omega: me = %d out of range [0,%d)", c.Me, c.N)
	}
	if c.Endpoint == nil {
		return fmt.Errorf("omega: nil endpoint")
	}
	if len(c.Monitoring) != c.N || len(c.Status) != c.N || len(c.FaultCntr) != c.N ||
		len(c.ActiveFor) != c.N || len(c.CounterReg) != c.N {
		return fmt.Errorf("omega: monitor/register slices must have length n=%d", c.N)
	}
	for q := 0; q < c.N; q++ {
		if q == c.Me {
			continue
		}
		if c.Monitoring[q] == nil || c.Status[q] == nil || c.FaultCntr[q] == nil || c.ActiveFor[q] == nil {
			return fmt.Errorf("omega: nil monitor wiring for peer %d", q)
		}
		if c.CounterReg[q] == nil {
			return fmt.Errorf("omega: nil counter register for process %d", q)
		}
	}
	if c.CounterReg[c.Me] == nil {
		return fmt.Errorf("omega: nil counter register for self")
	}
	return nil
}

// statusKnown is the exit condition of Figure 3 lines 10–11.
func statusKnown(s monitor.Status) bool { return s != monitor.StatusUnknown }

// RegistersTask returns the Figure 3 main loop for one process: the Ω∆
// implementation from activity monitors and atomic registers. It returns
// an error only for invalid wiring.
func RegistersTask(cfg RegistersConfig) (func(prim.Proc), error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return func(p prim.Proc) {
		me, n := cfg.Me, cfg.N
		var (
			status       = make([]monitor.Status, n)
			faultCntr    = make([]int64, n)
			maxFaultCntr = make([]int64, n)
			counter      = make([]int64, n)
			activeSet    []int
		)
		for { // line 1: repeat forever
			cfg.Endpoint.Leader.Set(NoLeader) // line 2
			for q := 0; q < n; q++ {          // lines 3–4
				if q == me {
					continue
				}
				cfg.Monitoring[q].Set(false)
				cfg.ActiveFor[q].Set(false)
			}

			cfg.Endpoint.Candidate.Await(p, prim.IsTrue) // line 5: while not candidate do skip

			for q := 0; q < n; q++ { // line 6
				if q != me {
					cfg.Monitoring[q].Set(true)
				}
			}
			// Lines 7–8: self-punishment on (re-)entry, so a process that
			// joins and leaves the competition forever accumulates an
			// unbounded counter and is eventually never chosen.
			if !cfg.AblateSelfPunishment {
				counter[me] = cfg.CounterReg[me].Read()
				cfg.CounterReg[me].Write(counter[me] + 1)
			}

			for cfg.Endpoint.Candidate.Get() { // line 9
				// Lines 10–11: consult A(p,q) until every status is known.
				for q := 0; q < n; q++ {
					if q == me {
						continue
					}
					status[q] = cfg.Status[q].Await(p, statusKnown)
					faultCntr[q] = cfg.FaultCntr[q].Get()
				}
				// Line 12: activeSet ← {q : status[q] = active} ∪ {p}.
				activeSet = activeSet[:0]
				for q := 0; q < n; q++ {
					if q == me || status[q] == monitor.StatusActive {
						activeSet = append(activeSet, q)
					}
				}
				// Line 13.
				for q := 0; q < n; q++ {
					counter[q] = cfg.CounterReg[q].Read()
				}
				// Line 14.
				leader := minByCounterThenID(activeSet, counter)
				cfg.Endpoint.Leader.Set(leader)
				// Lines 15–17: a process advertises itself as active only
				// while it considers itself the leader.
				iAmLeader := leader == me
				for q := 0; q < n; q++ {
					if q != me {
						cfg.ActiveFor[q].Set(iAmLeader)
					}
				}
				// Lines 18–21: punish processes whose fault counter grew.
				for q := 0; q < n; q++ {
					if q == me {
						continue
					}
					if faultCntr[q] > maxFaultCntr[q] {
						cfg.CounterReg[q].Write(counter[q] + 1)
						maxFaultCntr[q] = faultCntr[q]
					}
				}
				p.Step()
			}
		}
	}, nil
}
