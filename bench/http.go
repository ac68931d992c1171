package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// http-slow1: the paper's headline as a service user sees it. A real
// tbwf-serve (3 replicas, counter, rt substrate, atomic elector) runs as
// a child process; G persistent connections offer `add` open-loop at a
// fixed rate to replicas 0 and 1 (the timely stream) while a probe
// connection offers a low rate to replica 2. After a steady phase replica
// 2 is made untimely through /v1/fault; the measured phase follows, then a
// closed loop on replicas 0 and 1 finds the saturation throughput.
const (
	httpReplicas    = 3
	httpSlowReplica = 2
	httpRate        = 150 // timely stream, requests per second
	httpProbeEvery  = 50 * time.Millisecond
	httpFaultSpec   = "growing:400:2ms:1.5"
	httpWarmupOps   = 100
	httpTimeout     = 5 * time.Second
	// Of an instance: 1/8 steady, 4/8 measured open loop, 3/8 closed loop.
	// The closed loop gets more than the sizing runs' 8/48: its rate
	// wanders on a scale of a second (conns swing between 125 and 380
	// ops/s per quarter second, together), so it needs the longest window
	// for the same steadiness; the open-loop percentiles settle sooner.
	httpSteadyShare = 1.0 / 8.0
	httpOpenShare   = 4.0 / 8.0
)

// httpRec is one request of the timely stream or the saturation loop, with
// the harness's timestamps (ns since the run's epoch).
type httpRec struct {
	due, send, resp int64
	status          int
	prev            int64
	backendUS       float64
	ok              bool
}

type invokeReply struct {
	OK   bool `json:"ok"`
	Resp struct {
		Prev int64 `json:"prev"`
	} `json:"resp"`
	LatencyUS float64 `json:"latency_us"`
}

// serverMetrics is the part of /v1/metrics the harness reads.
type serverMetrics struct {
	Processes []struct {
		Steps    int64   `json:"steps"`
		MaxGapUS float64 `json:"max_gap_us"`
		Rejected int64   `json:"rejected"`
		Client   struct {
			Completed int64 `json:"completed"`
			Invokes   int64 `json:"invokes"`
			Queries   int64 `json:"queries"`
			Aborts    int64 `json:"aborts"`
		} `json:"client"`
		QA struct {
			Proposals     int64 `json:"proposals"`
			NopProposals  int64 `json:"nop_proposals"`
			SlotsReplayed int64 `json:"slots_replayed"`
		} `json:"qa"`
	} `json:"processes"`
	QASlots int64 `json:"qa_slots"`
}

func addBody(replica int) []byte {
	return []byte(fmt.Sprintf(`{"replica":%d,"op":{"kind":"add","delta":1}}`, replica))
}

// invoke sends one add and decodes the reply into rec. A transport error
// leaves the connection redialled for the next request.
func invoke(h *httpConn, replica int, timeout time.Duration, epoch time.Time, rec *httpRec) {
	rec.send = int64(time.Since(epoch))
	status, body, err := h.do("POST", "/v1/invoke", addBody(replica), timeout)
	rec.resp = int64(time.Since(epoch))
	if err != nil {
		h.redial()
		return
	}
	rec.status = status
	var reply invokeReply
	if status == http.StatusOK && json.Unmarshal(body, &reply) == nil && reply.OK {
		rec.ok, rec.prev, rec.backendUS = true, reply.Resp.Prev, reply.LatencyUS
	}
}

func fetchMetrics(h *httpConn) (serverMetrics, error) {
	var m serverMetrics
	status, body, err := h.do("GET", "/v1/metrics", nil, httpTimeout)
	if err != nil {
		return m, fmt.Errorf("/v1/metrics: %w", err)
	}
	if status != http.StatusOK {
		return m, fmt.Errorf("/v1/metrics: status %d", status)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("/v1/metrics: %w", err)
	}
	if len(m.Processes) != httpReplicas {
		return m, fmt.Errorf("/v1/metrics: %d processes, want %d", len(m.Processes), httpReplicas)
	}
	return m, nil
}

// httpWarm starts a server and sends the warm-up adds, one at a time,
// alternating replicas 0 and 1. It returns the set-up time and the prev
// values the warm-up saw.
func httpWarm(bin string) (*serveChild, *httpConn, float64, []int64, error) {
	t0 := time.Now()
	child, err := startServe(bin, "-n", fmt.Sprint(httpReplicas), "-object", "counter")
	if err != nil {
		return nil, nil, 0, nil, err
	}
	ctl, err := dialHTTP(child.addr)
	if err != nil {
		child.stop()
		return nil, nil, 0, nil, err
	}
	var prevs []int64
	for n := 0; n < httpWarmupOps; n++ {
		var rec httpRec
		invoke(ctl, n%2, httpTimeout, t0, &rec)
		if !rec.ok {
			ctl.c.Close()
			child.stop()
			return nil, nil, 0, nil, fmt.Errorf("http-slow1: warm-up add %d failed (status %d)", n, rec.status)
		}
		prevs = append(prevs, rec.prev)
	}
	return child, ctl, time.Since(t0).Seconds(), prevs, nil
}

// probeStream offers the slow replica a request every httpProbeEvery,
// skipping ticks while one is outstanding. Its fields are the owner's to
// read once stop has returned.
type probeStream struct {
	conn *httpConn
	quit chan struct{}
	done chan struct{}
	// injectedAt is when the fault went in (ns since the epoch; 0 before).
	injectedAt atomic.Int64

	sent        int64   // requests sent; the last one is cut off by stop
	prevs       []int64 // the acknowledged ones' prev values, in order
	afterInject int64   // how many were acknowledged after the injection
}

func startProbe(conn *httpConn, epoch time.Time) *probeStream {
	p := &probeStream{conn: conn, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(httpProbeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			var r httpRec
			p.sent++
			// No timeout of its own: after the injection the replica may sit
			// on a request for the rest of the run; stop interrupts it.
			invoke(conn, httpSlowReplica, time.Hour, epoch, &r)
			if r.ok {
				p.prevs = append(p.prevs, r.prev)
				if at := p.injectedAt.Load(); at > 0 && r.resp > at {
					p.afterInject++
				}
			}
		}
	}()
	return p
}

// stop ends the stream, cutting off a request stuck on the slow replica.
func (p *probeStream) stop() {
	close(p.quit)
	p.conn.interrupt()
	<-p.done
}

// saturate is the closed loop: every connection sends back to back,
// alternating replicas 0 and 1, until length has passed. It returns each
// connection's requests and when the phase ended.
func saturate(conns []*httpConn, length time.Duration, epoch time.Time) ([][]httpRec, int64) {
	end := int64(time.Since(epoch) + length)
	recs := make([][]httpRec, len(conns))
	var wg sync.WaitGroup
	for g := range conns {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g; int64(time.Since(epoch)) < end; n++ {
				var r httpRec
				invoke(conns[g], n%2, httpTimeout, epoch, &r)
				r.due = r.send
				recs[g] = append(recs[g], r)
			}
		}(g)
	}
	wg.Wait()
	return recs, end
}

func runHTTPSlow1(cfg runConfig, rec *recorder) (*outcome, error) {
	o := newOutcome()
	bin, err := buildServe()
	if err != nil {
		return nil, err
	}
	G := cfg.generators
	steadyLen := time.Duration(cfg.seconds * httpSteadyShare * float64(time.Second))
	openLen := time.Duration(cfg.seconds * httpOpenShare * float64(time.Second))
	satLen := time.Duration(cfg.seconds*float64(time.Second)) - steadyLen - openLen

	// Set-up: exec to the 100th warm-up add.
	child, ctl, took, warmPrevs, err := httpWarm(bin)
	if err != nil {
		return nil, err
	}
	defer child.stop()
	defer ctl.c.Close()
	o.raw.setupS = took
	if cfg.setupOnly {
		return o, nil
	}

	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }
	conns := make([]*httpConn, G)
	for g := range conns {
		if conns[g], err = dialHTTP(child.addr); err != nil {
			return nil, err
		}
		defer conns[g].c.Close()
	}
	probeConn, err := dialHTTP(child.addr)
	if err != nil {
		return nil, err
	}
	defer probeConn.c.Close()

	// The timely stream: request i is due i/httpRate seconds into the
	// phase, goes to connection i mod G and replica i mod 2. One pacer
	// releases requests on schedule; each connection sends what it is
	// handed, one at a time, so a slow reply delays the requests queued
	// behind it on that connection — and they are timed from when they
	// were due.
	total := int((steadyLen + openLen).Seconds() * httpRate)
	recs := make([]httpRec, total)
	work := make([]chan int, G)
	var senders sync.WaitGroup
	for g := range work {
		// Sized to the connection's whole share, so the pacer never blocks.
		work[g] = make(chan int, total/G+1)
		senders.Add(1)
		go func(g int) {
			defer senders.Done()
			for i := range work[g] {
				invoke(conns[g], i%2, httpTimeout, epoch, &recs[i])
			}
		}(g)
	}

	probe := startProbe(probeConn, epoch)

	// The injector ends the steady phase: it makes replica 2 untimely and
	// takes the counters the measured phase's deltas start from. It has its
	// own goroutine and connection so that the pacer is never held up.
	start := now()
	var m0, m1 serverMetrics
	var cpu0, cpu1 time.Duration
	injectErr := make(chan error, 1)
	go func() {
		time.Sleep(steadyLen - time.Duration(now()-start))
		body := fmt.Sprintf(`{"process":%d,"spec":%q}`, httpSlowReplica, httpFaultSpec)
		status, resp, err := ctl.do("POST", "/v1/fault", []byte(body), httpTimeout)
		if err != nil || status != http.StatusOK {
			injectErr <- fmt.Errorf("http-slow1: /v1/fault: status %d, %v %s", status, err, resp)
			return
		}
		probe.injectedAt.Store(now())
		var err2 error
		if m0, err2 = fetchMetrics(ctl); err2 == nil {
			cpu0, err2 = procCPU(child.cmd.Process.Pid)
		}
		injectErr <- err2
	}()

	var late []float64
	for i := 0; i < total; i++ {
		due := start + int64(i)*int64(time.Second)/httpRate
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		late = append(late, float64(now()-due)/1e3)
		recs[i].due = due
		work[i%G] <- i
	}
	for g := range work {
		close(work[g])
	}
	senders.Wait()
	err = <-injectErr
	if err == nil {
		err = child.alive()
	}
	if err == nil {
		if m1, err = fetchMetrics(ctl); err == nil {
			cpu1, err = procCPU(child.cmd.Process.Pid)
		}
	}
	if err != nil {
		probe.stop()
		return nil, err
	}

	satRecs, satEnd := saturate(conns, satLen, epoch)
	probe.stop()
	if err := child.alive(); err != nil {
		return nil, err
	}

	// The final read closes the chain. The probe's cut-off request may
	// still land later, or never: it stays unacknowledged.
	status, body, err := ctl.do("GET", "/v1/read?replica=0", nil, httpTimeout)
	var final invokeReply
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &final) != nil || !final.OK {
		return nil, fmt.Errorf("http-slow1: final read: status %d, %v %s", status, err, body)
	}
	rss := peakRSSMB(child.cmd.Process.Pid)

	// Correctness: every acknowledged add on any stream is a link of one
	// chain ending at the final read; each connection sees its own adds in
	// order.
	prevs := append([]int64(nil), warmPrevs...)
	bad := checkMonotone(o, "warm-up connection", warmPrevs)
	perConn := make([][]int64, G)
	var attempted, failed, rejected int64
	count := func(g int, r *httpRec) {
		attempted++
		if r.status == http.StatusServiceUnavailable {
			rejected++
		}
		if !r.ok {
			failed++
			return
		}
		prevs = append(prevs, r.prev)
		perConn[g] = append(perConn[g], r.prev)
	}
	for i := range recs {
		count(i%G, &recs[i])
	}
	satDone := int64(0)
	for g := range satRecs {
		for i := range satRecs[g] {
			r := &satRecs[g][i]
			count(g, r)
			if r.ok && r.resp <= satEnd {
				satDone++
			}
		}
	}
	for g := range perConn {
		bad += checkMonotone(o, fmt.Sprintf("connection %d", g), perConn[g])
	}
	bad += checkMonotone(o, "probe connection", probe.prevs)
	prevs = append(prevs, probe.prevs...)
	unacked := failed + probe.sent - int64(len(probe.prevs))
	bad += checkCounterChain(o, "counter", prevs, final.Resp.Prev, unacked)

	// The timely stream, split at the injection.
	inject := probe.injectedAt.Load()
	var steadyLat, openLat, overhead, backend []float64
	var openDoneAt []int64
	for i := range recs {
		r := &recs[i]
		if !r.ok {
			continue
		}
		lat := float64(r.resp-r.due) / 1e3
		if r.due < inject {
			steadyLat = append(steadyLat, lat)
			continue
		}
		openLat = append(openLat, lat)
		openDoneAt = append(openDoneAt, r.resp)
		overhead = append(overhead, float64(r.resp-r.send)/1e3-r.backendUS)
		backend = append(backend, r.backendUS)
	}
	if len(openLat) == 0 || len(steadyLat) == 0 || satDone == 0 {
		return nil, fmt.Errorf("http-slow1: no successful requests (steady %d, measured %d, saturation %d)",
			len(steadyLat), len(openLat), satDone)
	}
	var steps, completed int64
	var cs, cs0 = m1.Processes, m0.Processes
	for p := range cs {
		steps += cs[p].Steps - cs0[p].Steps
		completed += cs[p].Client.Completed - cs0[p].Client.Completed
	}
	o.attempted = attempted
	o.failed = min(failed+bad, attempted)
	o.raw.lat = openLat
	o.raw.ops, o.raw.opsSeconds = float64(satDone), satLen.Seconds()
	o.raw.cpuMS, o.raw.cpuOps = float64(cpu1-cpu0)/1e6, float64(max(completed, 1))
	o.raw.steps, o.raw.stepOps = float64(steps), float64(max(completed, 1))
	lateP99 := quantile(sortedCopy(late), 0.99)
	o.note("http-slow1: G=%d, %d steady and %d measured timely requests, %d saturation ops, %d probe ops after the injection; generator p99 lateness %.0f us",
		G, len(steadyLat), len(openLat), satDone, probe.afterInject, lateP99)
	o.gateGenerator(wlHTTP, lateP99)

	// Layer metrics.
	so, sb, ss := sortedCopy(overhead), sortedCopy(backend), sortedCopy(steadyLat)
	o.layer["serve.http_overhead_p50_us"] = quantile(so, 0.5)
	o.layer["serve.http_overhead_p99_us"] = quantile(so, 0.99)
	o.layer["serve.backend_p50_us"] = quantile(sb, 0.5)
	o.layer["serve.backend_p99_us"] = quantile(sb, 0.99)
	o.layer["serve.steady_p50_us"] = quantile(ss, 0.5)
	o.layer["serve.steady_p99_us"] = quantile(ss, 0.99)
	o.layer["serve.slow_probe_done"] = float64(probe.afterInject)
	o.layer["serve.rejected"] = float64(rejected)
	sort.Slice(openDoneAt, func(i, j int) bool { return openDoneAt[i] < openDoneAt[j] })
	stall, last := int64(0), inject
	for _, at := range openDoneAt {
		stall, last = max(stall, at-last), max(last, at)
	}
	o.layer["elector.stall_ms"] = float64(stall) / 1e6
	o.layer["rt.steps_per_op"] = o.raw.steps / o.raw.stepOps
	o.layer["rt.max_gap_timely_ms"] = max(cs[0].MaxGapUS, cs[1].MaxGapUS) / 1e3
	var d struct{ invokes, queries, aborts, proposals, replays int64 }
	for p := range cs {
		d.invokes += cs[p].Client.Invokes - cs0[p].Client.Invokes
		d.queries += cs[p].Client.Queries - cs0[p].Client.Queries
		d.aborts += cs[p].Client.Aborts - cs0[p].Client.Aborts
		d.proposals += cs[p].QA.Proposals + cs[p].QA.NopProposals - cs0[p].QA.Proposals - cs0[p].QA.NopProposals
		d.replays += cs[p].QA.SlotsReplayed - cs0[p].QA.SlotsReplayed
	}
	per := float64(max(completed, 1))
	o.layer["core.aborts_per_op"] = float64(d.aborts) / per
	o.layer["core.queries_per_op"] = float64(d.queries) / per
	o.layer["core.invokes_per_op"] = float64(d.invokes) / per
	o.layer["qa.proposals_per_op"] = float64(d.proposals) / per
	o.layer["qa.replays_per_op"] = float64(d.replays) / per
	o.layer["qa.slots_allocated"] = float64(m1.QASlots)
	o.layer["host.gen_late_p99_us"] = lateP99
	o.layer["host.peak_rss_mb"] = rss
	if cfg.traced {
		setBudget(o, httpSpans(rec, epoch, recs, inject), spanRequest)
	}
	return o, nil
}

// Span names of one traced http-slow1 request (spanRequest and
// spanClientQueue are shared with kv-direct).
const (
	spanServeHTTP    = "serve.http"
	spanServeBackend = "serve.backend"
)

// httpSpans turns the measured phase's records into spans: the request
// from its due time to its reply; inside it the wait for its connection
// and the round trip; inside the round trip the backend time the server
// reported. The server says how long the backend took, not when, so that
// span is placed to end with the reply; only its length is a measurement.
// The round trip's self time is then the HTTP, JSON and socket overhead.
func httpSpans(rec *recorder, epoch time.Time, recs []httpRec, inject int64) []span {
	b := rec.buf()
	at := func(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }
	for i := range recs {
		r := &recs[i]
		if !r.ok || r.due < inject {
			continue
		}
		req, root, rt := int64(i), b.id(), b.id()
		backendStart := max(r.send, r.resp-int64(r.backendUS*1e3))
		b.put(b.id(), root, req, spanClientQueue, at(r.due), at(r.send), 0)
		b.put(b.id(), rt, req, spanServeBackend, at(backendStart), at(r.resp), 0)
		b.put(rt, root, req, spanServeHTTP, at(r.send), at(r.resp), 0)
		b.put(root, 0, req, spanRequest, at(r.due), at(r.resp), 0)
	}
	return rec.all()
}
