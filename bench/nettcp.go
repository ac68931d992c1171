package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tbwf/internal/deploy"
	"tbwf/internal/net"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
	"tbwf/internal/rt"
)

// net-tcp: a TBWF counter on the message-passing substrate, assembled the
// way serve.buildNet assembles it — three replica nodes on loopback
// ports, ABD quorum registers over real TCP, 5 ms retransmission — with
// each process's task invoking closed-loop. It is the one workload the
// net layer dominates.
const (
	netProcs      = 3
	netRetransmit = 5 * time.Millisecond
	// netDrainTimeout bounds the wait for a client to finish the op it was
	// in when the run ended; an op is a chain of quorum round trips and
	// takes around a second.
	netDrainTimeout = 60 * time.Second
)

type netOp struct {
	proc  int
	prev  int64
	start time.Time
	done  time.Time
}

// netStack is one deployment of the workload.
type netStack struct {
	r     *rt.Runtime
	nodes []*net.NodeServer
	sub   *net.Substrate
	tcp   *net.TCP
	st    *counterStack
	fig7  []*fig7Client[int64, objtype.CounterOp, int64]

	stop    atomic.Bool
	first   sync.WaitGroup // released as each client completes its first op
	exited  sync.WaitGroup
	ops     [netProcs][]netOp // ops[p] is written by client p's task only
	started atomic.Int64      // ops invoked, for the unacknowledged count
}

// newNetStack listens, connects, builds the stack and starts one
// closed-loop client per process. rec, when not nil, makes the harness's
// Figure 7 client drive the operations with spans.
func newNetStack(traced bool, rec *recorder) (*netStack, error) {
	s := &netStack{r: rt.New(netProcs, nil)}
	var peers []string
	for i := 0; i < netProcs; i++ {
		nd, err := net.ListenNode("127.0.0.1:0", net.NewNode(i))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("net-tcp: node %d: %w", i, err)
		}
		s.nodes = append(s.nodes, nd)
		peers = append(peers, nd.Addr())
	}
	var err error
	s.sub, s.tcp, err = net.NewTCP(s.r, s.r.Stopping(), net.TCPConfig{Peers: peers, RetransmitEvery: netRetransmit}, net.Config{})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("net-tcp: %w", err)
	}
	s.st, err = deploy.Build[int64, objtype.CounterOp, int64](s.sub, objtype.Counter{}, deploy.BuildConfig{})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("net-tcp: %w", err)
	}
	s.first.Add(netProcs)
	s.exited.Add(netProcs)
	for p := 0; p < netProcs; p++ {
		p := p
		invoke := func(pp prim.Proc, n int64) int64 {
			return s.st.Clients[p].Invoke(pp, objtype.CounterOp{Delta: 1})
		}
		if traced {
			c := newFig7(s.st.Instances[p], s.st.Object.Handle(p), rec.buf())
			s.fig7 = append(s.fig7, c)
			invoke = func(pp prim.Proc, n int64) int64 {
				return c.invoke(pp, objtype.CounterOp{Delta: 1}, int64(p)<<40|n)
			}
		}
		s.sub.Spawn(p, fmt.Sprintf("client[%d]", p), func(pp prim.Proc) {
			// Runtime.Stop unwinds a task from inside Invoke; the deferred
			// calls keep the waiters from hanging on it.
			n := int64(0)
			defer func() {
				if n == 0 {
					s.first.Done()
				}
				s.exited.Done()
			}()
			for !s.stop.Load() {
				s.started.Add(1)
				t0 := time.Now()
				prev := invoke(pp, n)
				s.ops[p] = append(s.ops[p], netOp{proc: p, prev: prev, start: t0, done: time.Now()})
				if n++; n == 1 {
					s.first.Done()
				}
			}
		})
	}
	return s, nil
}

// close stops the runtime's tasks and the transport, then the nodes.
func (s *netStack) close() error {
	err := s.r.Stop()
	for _, nd := range s.nodes {
		nd.Close()
	}
	return err
}

// waitTimeout waits for wg, or reports what was being waited for.
func waitTimeout(wg *sync.WaitGroup, d time.Duration, what string) error {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(d):
		return fmt.Errorf("timed out after %v waiting for %s", d, what)
	}
}

func runNetTCP(cfg runConfig, rec *recorder) (*outcome, error) {
	o := newOutcome()

	// Set-up: constructor to the first leader every process agrees on —
	// listeners, dials, the stack, and the elector's stabilization over TCP.
	// The other workloads' hundred warm-up ops are out of reach here (an op
	// takes most of a second), and the time to a first op is mostly that
	// op's luck: it reads 0.44–1.13 s over sixteen set-ups where the time to
	// a leader reads 0.15–0.21 s.
	t0 := time.Now()
	s, err := newNetStack(cfg.traced, rec)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if _, err := awaitLeader(s.st.Leaders, []int{0, 1, 2}, netDrainTimeout); err != nil {
		return nil, fmt.Errorf("net-tcp: %w", err)
	}
	o.raw.setupS = time.Since(t0).Seconds()
	if cfg.setupOnly {
		return o, nil
	}

	// Measured run: closed loop for the whole length, from every client's
	// first completed op.
	if err := waitTimeout(&s.first, netDrainTimeout, "every net-tcp client's first op"); err != nil {
		return nil, err
	}
	steps0, _ := rtTotals(s.r, netProcs)
	start, cpu0 := time.Now(), selfCPU()
	sent0, dropped0 := s.tcp.Sent(), s.tcp.Dropped()
	time.Sleep(time.Duration(cfg.seconds * float64(time.Second)))
	end, cpu := time.Now(), selfCPU()-cpu0
	sent, dropped := s.tcp.Sent()-sent0, s.tcp.Dropped()-dropped0
	steps, maxGap := rtTotals(s.r, netProcs)
	steps -= steps0

	// Let every client finish its op, then read the counter.
	s.stop.Store(true)
	if err := waitTimeout(&s.exited, netDrainTimeout, "the net-tcp clients to finish their last op"); err != nil {
		return nil, err
	}
	final := make(chan int64, 1)
	s.sub.Spawn(0, "final-read", func(pp prim.Proc) {
		final <- s.st.Clients[0].Invoke(pp, objtype.CounterOp{})
	})
	var total int64
	select {
	case total = <-final:
	case <-time.After(netDrainTimeout):
		return nil, fmt.Errorf("net-tcp: timed out waiting for the final read")
	}

	// Correctness: one gap-free, duplicate-free chain of prev values
	// ending at the final read, in order on every client.
	var all []netOp
	var prevs []int64
	bad := int64(0)
	for p := 0; p < netProcs; p++ {
		var mine []int64
		for _, op := range s.ops[p] {
			mine = append(mine, op.prev)
		}
		bad += checkMonotone(o, fmt.Sprintf("client %d", p), mine)
		prevs = append(prevs, mine...)
		all = append(all, s.ops[p]...)
	}
	acked := int64(len(prevs))
	bad += checkCounterChain(o, "counter", prevs, total, s.started.Load()-acked)

	sort.Slice(all, func(i, j int) bool { return all[i].done.Before(all[j].done) })
	var lat []float64
	for _, op := range all {
		if op.done.After(start) && !op.done.After(end) {
			lat = append(lat, usOf(op.done.Sub(op.start)))
		}
	}
	done := int64(len(lat))
	if done == 0 {
		return nil, fmt.Errorf("net-tcp: no operation completed in %.1f s", cfg.seconds)
	}
	o.attempted = s.started.Load()
	o.failed = min(bad+(o.attempted-acked), o.attempted)
	o.raw.lat = lat
	o.raw.ops, o.raw.opsSeconds = float64(done), end.Sub(start).Seconds()
	o.raw.cpuMS, o.raw.cpuOps = float64(cpu)/1e6, float64(done)
	o.raw.steps, o.raw.stepOps = float64(steps), float64(done)
	o.note("net-tcp: %d ops in the measured %.1f s", done, cfg.seconds)

	o.layer["net.msgs_per_op"] = float64(sent) / float64(done)
	o.layer["net.dropped_ratio"] = float64(dropped) / float64(max(sent, 1))
	o.layer["rt.steps_per_op"] = o.raw.steps / o.raw.stepOps
	o.layer["rt.max_gap_timely_ms"] = float64(maxGap) / 1e6
	o.layer["qa.slots_allocated"] = float64(s.st.Object.SlotsAllocated())
	o.layer["host.peak_rss_mb"] = peakRSSMB(0)
	setCoreCounters(o, s.st, s.fig7, 1)
	if err := s.close(); err != nil { // a task that panicked is a failed run
		return nil, fmt.Errorf("net-tcp: %w", err)
	}
	if cfg.traced {
		spans := rec.all()
		o.layer["core.invoke_p50_us"], o.layer["core.leader_wait_p50_us"], o.layer["core.leader_wait_share"] = fig7Shares(spans)
		setBudget(o, spans, spanInvoke)
	}
	return o, nil
}

// The qa log's vote and decision registers cross the TCP transport as gob
// frames, which needs the counter's instantiations registered; internal/serve
// does the same for the objects it deploys.
func init() {
	prim.RegisterWireType(qa.Accepted[objtype.CounterOp]{})
	prim.RegisterWireType(qa.Decision[objtype.CounterOp]{})
}
