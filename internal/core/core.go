// Package core implements the paper's primary contribution: the
// timeliness-based wait-free (TBWF) universal transformation of Section 7
// (Figures 7 and 8).
//
// TBWF (Definition 3) is the progress condition: in every run, every
// process that is *timely* (Definition 2 — its scheduling gaps are bounded
// relative to the other processes) completes each of its operations in a
// finite number of its own steps. The condition degrades gracefully with
// synchrony: with no timely processes it is obstruction-freedom, with k
// timely processes those k are guaranteed progress, and with all processes
// timely it is wait-freedom (Section 1.1).
//
// The transformation takes any dynamic leader elector Ω∆ (package omega,
// with implementations from atomic registers in omega and from abortable
// registers in omegaab) and a wait-free query-abortable object O_QA
// (package qa, from abortable registers) and yields a TBWF object of the
// underlying type T: a client first waits until it is not the leader (the
// *canonical use* of Ω∆, Definition 6 — without it, one timely process
// could monopolize the object forever), then competes for leadership, and
// while it is the leader drives the Figure 8 state machine on O_QA: invoke
// op; on ⊥ query until the fate settles; on F re-invoke; on a real
// response withdraw candidacy and return.
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
)

// Client is one process's endpoint of a TBWF object: its Ω∆ endpoint plus
// its handle on the underlying query-abortable object. All operations of a
// process must go through its single Client, from its own task.
type Client[S, O, R any] struct {
	me     int
	omega  *omega.Instance
	handle *qa.Handle[S, O, R]

	// canonical selects the Figure 7 line 2 wait; disabling it (see
	// NewClientNonCanonical) reproduces the monopolization failure the
	// paper warns about and exists only for that experiment.
	canonical bool

	// isMe and notMe are the Await predicates of Figure 7 lines 6 and 2,
	// made once so that Invoke allocates no closure per call.
	isMe, notMe func(leader int) bool

	completed  atomic.Int64
	invokes    atomic.Int64
	queries    atomic.Int64
	aborts     atomic.Int64
	lastDoneNS atomic.Int64
}

// NewClient wires process me's endpoint from its Ω∆ instance and its
// query-abortable handle, using the canonical protocol.
func NewClient[S, O, R any](inst *omega.Instance, h *qa.Handle[S, O, R]) (*Client[S, O, R], error) {
	if inst == nil || h == nil {
		return nil, fmt.Errorf("core: nil omega instance or qa handle")
	}
	if inst.Me != h.Me() {
		return nil, fmt.Errorf("core: omega endpoint of process %d wired to qa handle of process %d", inst.Me, h.Me())
	}
	me := inst.Me
	return &Client[S, O, R]{
		me: me, omega: inst, handle: h, canonical: true,
		isMe:  func(leader int) bool { return leader == me },
		notMe: func(leader int) bool { return leader != me },
	}, nil
}

// NewClientNonCanonical builds a client that skips the canonical wait of
// Figure 7 line 2. The paper points out that this allows a timely process
// to win every leadership competition and starve the other timely
// processes; the E7 experiment demonstrates exactly that. Do not use it
// for anything else.
func NewClientNonCanonical[S, O, R any](inst *omega.Instance, h *qa.Handle[S, O, R]) (*Client[S, O, R], error) {
	c, err := NewClient(inst, h)
	if err != nil {
		return nil, err
	}
	c.canonical = false
	return c, nil
}

// Me returns the client's process id.
func (c *Client[S, O, R]) Me() int { return c.me }

// markDone records a completed operation and stamps the completion time.
func (c *Client[S, O, R]) markDone() {
	c.completed.Add(1)
	c.lastDoneNS.Store(time.Now().UnixNano())
}

// Invoke executes op on the TBWF object and blocks until it completes,
// returning the operation's response. It is the procedure invoke(op, O, T)
// of Figure 7. If the calling process is timely in the run, the call
// completes in a finite number of the process's steps; an untimely caller
// may wait forever without ever impeding the timely processes.
//
// p must be the calling task's own process handle.
func (c *Client[S, O, R]) Invoke(p prim.Proc, op O) R {
	// Line 2: canonical use — after our previous withdrawal, wait until
	// Ω∆ stops naming us leader before competing again.
	if c.canonical {
		c.omega.Leader.Await(p, c.notMe)
	}
	c.omega.Candidate.Set(true) // line 3: compete for leadership

	doQuery := false // false: op' = op; true: op' = query (line 4)
	for {            // line 5: repeat forever
		// Line 6: the iterations that find leader ≠ me do nothing but
		// step, which is a skip loop on a local variable.
		c.omega.Leader.Await(p, c.isMe)
		if doQuery {
			c.queries.Add(1)
			r, out := c.handle.Query() // line 7 with op' = query
			switch out {
			case qa.QueryApplied: // line 8: res ∉ {⊥, F}
				c.omega.Candidate.Set(false)
				c.markDone()
				return r
			case qa.QueryNotApplied: // line 10: res = F → op' ← op
				doQuery = false
			default: // line 9: res = ⊥ → keep querying
				c.aborts.Add(1)
			}
		} else {
			c.invokes.Add(1)
			r, ok := c.handle.Invoke(op) // line 7 with op' = op
			if ok {                      // line 8
				c.omega.Candidate.Set(false)
				c.markDone()
				return r
			}
			c.aborts.Add(1)
			doQuery = true // line 9: res = ⊥ → op' ← query
		}
		p.Step()
	}
}

// Stats is a snapshot of a client's counters.
type Stats struct {
	// Completed counts operations that returned.
	Completed int64
	// Invokes and Queries count calls on the underlying O_QA.
	Invokes, Queries int64
	// Aborts counts ⊥ outcomes from those calls.
	Aborts int64
	// LastCompletedUnixNano is the wall-clock time of the latest
	// completion (0 if none yet). A growing age flags a client that is
	// currently failing to make progress — the telemetry layer's live
	// liveness signal.
	LastCompletedUnixNano int64
}

// Stats returns a snapshot of the client's counters. It is safe to call
// from harness hooks while the client is running.
func (c *Client[S, O, R]) Stats() Stats {
	return Stats{
		Completed:             c.completed.Load(),
		Invokes:               c.invokes.Load(),
		Queries:               c.queries.Load(),
		Aborts:                c.aborts.Load(),
		LastCompletedUnixNano: c.lastDoneNS.Load(),
	}
}

// Completed returns the number of operations the client has finished.
func (c *Client[S, O, R]) Completed() int64 { return c.completed.Load() }
