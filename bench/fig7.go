package main

import (
	"time"

	"tbwf/internal/core"
	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
)

// fig7Client is the harness's own statement of the paper's Figure 7 over
// exported API only — an Ω∆ endpoint's Leader and Candidate variables and
// a qa.Handle's Invoke and Query — so that spans can be put around the
// canonical wait, the wait to lead and every call on the query-abortable
// object without touching internal/core.
//
// It must take exactly the steps core.Client.Invoke takes: the same reads
// of Leader, the same Step calls in the same places, the same qa calls.
// On the simulation kernel that is checkable bit for bit, and it is
// checked: TestFig7MatchesCoreClient, and every traced sim-steps run, run
// both clients under one seed and require identical completion counts and
// responses.
type fig7Client[S, O, R any] struct {
	me     int
	omega  *omega.Instance
	handle *qa.Handle[S, O, R]
	buf    *spanBuf

	// The counters mirror core.Stats; the owning task alone writes them,
	// and they are read after it has stopped.
	stats core.Stats
}

func newFig7[S, O, R any](inst *omega.Instance, h *qa.Handle[S, O, R], buf *spanBuf) *fig7Client[S, O, R] {
	return &fig7Client[S, O, R]{me: inst.Me, omega: inst, handle: h, buf: buf}
}

// Span names of one traced invocation. The root's self time is the
// protocol's own bookkeeping between the waits and the qa calls.
const (
	spanInvoke    = "core.invoke"
	spanCanonical = "core.canonical_wait"
	spanLead      = "core.lead_wait"
	spanQAInvoke  = "qa.invoke"
	spanQAQuery   = "qa.query"
)

// invoke is Figure 7's invoke(op, O, T), line for line as core.Client
// states it, with a span around each wait and each qa call when traced.
// req identifies the invocation in the trace.
func (c *fig7Client[S, O, R]) invoke(p prim.Proc, op O, req int64) R {
	traced := c.buf != nil
	var root int64
	var t0, w0 time.Time
	if traced {
		root, t0 = c.buf.id(), time.Now()
		w0 = t0
	}
	steps := int64(0)

	// Line 2: the canonical wait.
	for c.omega.Leader.Get() == c.me {
		p.Step()
		steps++
	}
	if traced {
		now := time.Now()
		c.buf.put(c.buf.id(), root, req, spanCanonical, w0, now, steps)
		w0, steps = now, 0
	}
	c.omega.Candidate.Set(true) // line 3

	doQuery := false
	for {
		if c.omega.Leader.Get() == c.me { // line 6
			var q0 time.Time
			if traced {
				q0 = time.Now()
				c.buf.put(c.buf.id(), root, req, spanLead, w0, q0, steps)
			}
			var (
				r    R
				done bool
				name = spanQAInvoke
			)
			if doQuery {
				name = spanQAQuery
				c.stats.Queries++
				var out qa.QueryOutcome
				r, out = c.handle.Query()
				switch out {
				case qa.QueryApplied:
					done = true
				case qa.QueryNotApplied:
					doQuery = false
				default:
					c.stats.Aborts++
				}
			} else {
				c.stats.Invokes++
				r, done = c.handle.Invoke(op)
				if !done {
					c.stats.Aborts++
					doQuery = true
				}
			}
			if traced {
				now := time.Now()
				c.buf.put(c.buf.id(), root, req, name, q0, now, 0)
				w0, steps = now, 0
			}
			if done {
				c.omega.Candidate.Set(false)
				c.stats.Completed++
				if traced {
					c.buf.put(root, 0, req, spanInvoke, t0, time.Now(), 0)
				}
				return r
			}
		}
		p.Step()
		steps++
	}
}

// fig7Shares reduces the spans of traced invocations to the three core
// layer metrics: the median invocation, the median leader wait (canonical
// wait plus every wait to lead of one invocation), and leader-wait time as
// a share of all invocation time.
func fig7Shares(spans []span) (invokeP50US, waitP50US, waitShare float64) {
	wait := map[int64]int64{}
	var invoke []float64
	var totalInvoke, totalWait int64
	for _, s := range spans {
		switch s.Name {
		case spanCanonical, spanLead:
			wait[s.Req] += s.End - s.Start
		}
	}
	var waits []float64
	for _, s := range spans {
		if s.Name != spanInvoke {
			continue
		}
		invoke = append(invoke, float64(s.End-s.Start)/1e3)
		waits = append(waits, float64(wait[s.Req])/1e3)
		totalInvoke += s.End - s.Start
		totalWait += wait[s.Req]
	}
	if totalInvoke > 0 {
		waitShare = float64(totalWait) / float64(totalInvoke)
	}
	return median(invoke), median(waits), waitShare
}
