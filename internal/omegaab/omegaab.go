package omegaab

import (
	"fmt"

	"tbwf/internal/omega"
	"tbwf/internal/prim"
)

// Msg is the pair ⟨counter_p[p], actrTo_p[q]⟩ that Figure 6 ships through
// the Messenger: the sender's own counter and the punishment it is asking
// the receiver to apply to itself.
type Msg struct {
	// Counter is the sender's view of its own counter.
	Counter int64
	// Punish asks the receiver to raise its own counter to at least this
	// value (0 = no punishment).
	Punish int64
}

// Config wires one process's Figure 6 task.
type Config struct {
	N  int
	Me int
	// Endpoint is the process's Ω∆ input/output pair.
	Endpoint *omega.Instance
	// Msgr is the process's Figure 4 messenger.
	Msgr *Messenger[Msg]
	// Hb is the process's Figure 5 heartbeat pair.
	Hb *Heartbeat
}

func (c *Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("omegaab: n = %d, need at least 2", c.N)
	}
	if c.Me < 0 || c.Me >= c.N {
		return fmt.Errorf("omegaab: me = %d out of range [0,%d)", c.Me, c.N)
	}
	if c.Endpoint == nil || c.Msgr == nil || c.Hb == nil {
		return fmt.Errorf("omegaab: nil endpoint, messenger or heartbeat")
	}
	return nil
}

// Task returns the Figure 6 main loop for one process: the Ω∆
// implementation from abortable registers. It returns an error only for
// invalid wiring.
func Task(cfg Config) (func(prim.Proc), error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return func(p prim.Proc) {
		n, me := cfg.N, cfg.Me
		leader := me                 // local leader estimate
		counter := make([]int64, n)  // counter[q]: p's view of q's counter
		actrTo := make([]int64, n)   // punishment p is sending to q
		writeDone := make([]bool, n) // whom to heartbeat (init false)
		msgTo := make([]Msg, n)

		for { // line 41: repeat forever
			cfg.Endpoint.Leader.Set(omega.NoLeader)      // line 42
			cfg.Endpoint.Candidate.Await(p, prim.IsTrue) // line 43
			// Line 44: self-punishment on (re-)entry, bounded so that
			// counter[me] stops changing once the leadership stabilizes —
			// otherwise WriteMsgs could never deliver its final value.
			counter[me] = max(counter[me], counter[leader]+1)

			for { // lines 45–59: do … while candidate
				// Line 46: heartbeat only the peers whose register we
				// managed to write — the gating that guarantees "if q
				// considers p active forever then q learns p's final
				// counter".
				cfg.Hb.Send(writeDone)
				active := cfg.Hb.Receive() // line 47

				// Line 48: leader ← min (counter, id) over the active set.
				leader = -1
				for q := 0; q < n; q++ {
					if !active[q] {
						continue
					}
					if leader == -1 || counter[q] < counter[leader] ||
						(counter[q] == counter[leader] && q < leader) {
						leader = q
					}
				}
				cfg.Endpoint.Leader.Set(leader) // line 49

				for q := 0; q < n; q++ { // lines 50–53
					if q == me {
						continue
					}
					if !active[q] { // punish inactive processes
						actrTo[q] = max(actrTo[q], counter[leader]+1)
					}
					msgTo[q] = Msg{Counter: counter[me], Punish: actrTo[q]}
				}
				copy(writeDone, cfg.Msgr.WriteMsgs(msgTo)) // line 54
				msgFrom := cfg.Msgr.ReadMsgs()             // line 55
				for q := 0; q < n; q++ {                   // lines 56–58
					if q == me {
						continue
					}
					counter[q] = msgFrom[q].Counter
					counter[me] = max(counter[me], msgFrom[q].Punish)
				}

				p.Step()                           // one main-loop iteration consumes at least a step
				if !cfg.Endpoint.Candidate.Get() { // line 59
					break
				}
			}
		}
	}, nil
}
