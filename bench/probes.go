package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/mpsc"
	"tbwf/internal/net"
	"tbwf/internal/objtype"
	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
	"tbwf/internal/rt"
	"tbwf/internal/serve"
	"tbwf/internal/serve/telemetry"
	"tbwf/internal/sim"
)

// A probe measures one layer on its own, through exported API, in a
// traced run of every workload that has the layer on its path. A metric
// the workload already measured in place (net-tcp and sim-steps drive the
// harness's Figure 7 client themselves) is left as the workload set it.
type probe struct {
	where []string
	run   func(cfg runConfig, o *outcome) error
}

var probes = []probe{
	{onHTTP, probeServeHandler},
	{onHTTP, probeServeSubmit},
	{onHTTP, probeTelemetry},
	{onKV, probeMPSC},
	{onRT, probeFig7},
	{onRT, probeQASolo},
	{onRT, probeElectorStabilize},
	{onRT, probeReelect},
	{onRT, probeRTPrimitives},
	{onRT, probeIdleSteps},
	{onRT, probeDeployBuild},
	{onNet, probeTCPRegister},
	{onNet, probeFabric},
}

func runProbes(cfg runConfig, o *outcome) error {
	for _, p := range probes {
		if !slices.Contains(p.where, cfg.workload) {
			continue
		}
		if err := p.run(cfg, o); err != nil {
			return err
		}
	}
	return nil
}

// setLayer sets a layer metric unless the workload measured it in place.
func setLayer(o *outcome, name string, v float64) {
	if _, ok := o.layer[name]; !ok {
		o.layer[name] = v
	}
}

// scaled shrinks a probe's iteration count with the run's scale.
func scaled(cfg runConfig, n int) int { return max(int(float64(n)*cfg.scale), 20) }

func scaledDur(cfg runConfig, d time.Duration) time.Duration {
	return max(time.Duration(float64(d)*cfg.scale), 100*time.Millisecond)
}

// onTask runs body as a task of process proc and waits for it.
func onTask(r *rt.Runtime, proc int, body func(pp prim.Proc)) {
	done := make(chan struct{})
	r.Spawn(proc, "probe", func(pp prim.Proc) {
		defer close(done)
		body(pp)
	})
	<-done
}

// probeServeHandler drives serve.Server.ServeHTTP in-process on a
// ResponseRecorder: the handler without sockets. What the handler takes
// beyond the backend latency it reports is the JSON codec and dispatch.
func probeServeHandler(cfg runConfig, o *outcome) error {
	srv, err := serve.New(serve.Config{N: httpReplicas, Object: "counter"})
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	defer srv.Stop()
	var handler, backend []float64
	n := scaled(cfg, 400)
	for i := -50; i < n; i++ { // the first 50 warm the elector and the pools
		req := httptest.NewRequest("POST", "/v1/invoke", bytes.NewReader(addBody((i+50)%httpReplicas)))
		w := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(w, req)
		d := time.Since(t0)
		var reply invokeReply
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil || !reply.OK {
			return fmt.Errorf("serve probe: status %d, body %s", w.Code, w.Body.Bytes())
		}
		if i >= 0 {
			handler = append(handler, usOf(d))
			backend = append(backend, reply.LatencyUS)
		}
	}
	setLayer(o, "serve.handler_p50_us", median(handler))
	setLayer(o, "serve.codec_us", median(handler)-median(backend))
	return nil
}

// probeServeSubmit times Backend.Submit alone: admission into a replica's
// queue, without the wait for the result.
func probeServeSubmit(cfg runConfig, o *outcome) error {
	r := rt.New(httpReplicas, nil)
	defer r.Stop()
	b, err := serve.NewBackend(r, serve.BackendConfig{Object: "counter", DropRaw: true}, serve.Hooks{})
	if err != nil {
		return fmt.Errorf("submit probe: %w", err)
	}
	b.Start()
	var total time.Duration
	n := scaled(cfg, 2000)
	for i := 0; i < n; i++ {
		pd := serve.NewPending("add")
		t0 := time.Now()
		err := b.Submit(i%httpReplicas, serve.WireOp{Kind: "add", Delta: 1}, pd)
		total += time.Since(t0)
		if err != nil {
			return fmt.Errorf("submit probe: %w", err)
		}
		res := <-pd.Done()
		serve.ReleaseResult(res)
		pd.Release()
	}
	setLayer(o, "serve.submit_ns", float64(total)/float64(n))
	return nil
}

func probeTelemetry(cfg runConfig, o *outcome) error {
	var h telemetry.Histogram
	n := scaled(cfg, 2_000_000)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Record(time.Duration(i%4096) * time.Microsecond)
	}
	setLayer(o, "telemetry.record_ns", float64(time.Since(t0))/float64(n))
	if h.Count() != int64(n) {
		return fmt.Errorf("telemetry probe: recorded %d of %d", h.Count(), n)
	}
	return nil
}

// probeMPSC pushes from G producers into one bounded queue drained in
// batches of 32, as a shard worker drains its lane.
func probeMPSC(cfg runConfig, o *outcome) error {
	q := mpsc.New[int](256)
	per := scaled(cfg, 400_000) / cfg.generators
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < cfg.generators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for !q.Push(i) {
					runtime.Gosched()
				}
			}
		}()
	}
	buf := make([]int, 32)
	for got := 0; got < per*cfg.generators; {
		n := q.PopBatch(buf)
		if n == 0 {
			runtime.Gosched()
		}
		got += n
	}
	elapsed := time.Since(t0)
	wg.Wait()
	setLayer(o, "mpsc.push_pop_ns", float64(elapsed)/float64(per*cfg.generators))
	return nil
}

// probeFig7 runs the harness's Figure 7 client, traced, on every process
// of an rt stack, then core.Client.Invoke on the same stack for as long.
// The spans give the core layer's inner budget; the two throughputs give
// what tracing costs.
func probeFig7(cfg runConfig, o *outcome) error {
	r := rt.New(3, nil)
	defer r.Stop()
	st, err := deploy.Build[int64, objtype.CounterOp, int64](r, objtype.Counter{}, deploy.BuildConfig{})
	if err != nil {
		return fmt.Errorf("fig7 probe: %w", err)
	}
	rec := newRecorder()
	// phase 0: warm-up, 1: traced Figure 7 client, 2: core.Client, 3: stop.
	var phase atomic.Int32
	var ops [4]atomic.Int64
	clients := make([]*fig7Client[int64, objtype.CounterOp, int64], 3)
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		p := p
		warm := newFig7(st.Instances[p], st.Object.Handle(p), nil)
		clients[p] = newFig7(st.Instances[p], st.Object.Handle(p), rec.buf())
		wg.Add(1)
		r.Spawn(p, "probe", func(pp prim.Proc) {
			defer wg.Done()
			op := objtype.CounterOp{Delta: 1}
			for n := int64(0); ; n++ {
				ph := phase.Load()
				switch ph {
				case 0:
					warm.invoke(pp, op, 0)
				case 1:
					clients[p].invoke(pp, op, int64(p)<<40|n)
				case 2:
					st.Clients[p].Invoke(pp, op)
				default:
					return
				}
				ops[ph].Add(1)
			}
		})
	}
	for ops[0].Load() < 200 {
		time.Sleep(time.Millisecond)
	}
	d := scaledDur(cfg, 700*time.Millisecond)
	var took [3]time.Duration
	for ph := int32(1); ph <= 2; ph++ {
		t0 := time.Now()
		phase.Store(ph)
		time.Sleep(d)
		took[ph] = time.Since(t0)
	}
	phase.Store(3)
	wg.Wait()
	tracedRate := float64(ops[1].Load()) / took[1].Seconds()
	plainRate := float64(ops[2].Load()) / took[2].Seconds()
	if tracedRate == 0 || plainRate == 0 {
		return fmt.Errorf("fig7 probe: no ops completed (traced %d, core %d)", ops[1].Load(), ops[2].Load())
	}
	inv, wait, share := fig7Shares(rec.all())
	setLayer(o, "core.invoke_p50_us", inv)
	setLayer(o, "core.leader_wait_p50_us", wait)
	setLayer(o, "core.leader_wait_share", share)
	setLayer(o, "core.trace_overhead_ratio", tracedRate/plainRate)
	if _, ok := o.layer["core.aborts_per_op"]; !ok {
		// The handles also served the warm-up and the core.Client phase.
		share := float64(ops[1].Load()) / float64(ops[0].Load()+ops[1].Load()+ops[2].Load())
		setCoreCounters(o, st, clients, share)
	}
	return nil
}

// probeQASolo times Handle.Invoke with nobody else on the object.
func probeQASolo(cfg runConfig, o *outcome) error {
	r := rt.New(2, nil)
	defer r.Stop()
	obj, err := qa.New[int64, objtype.CounterOp, int64](objtype.Counter{}, 2, qa.SubstrateFactories[objtype.CounterOp](r), 0)
	if err != nil {
		return fmt.Errorf("qa probe: %w", err)
	}
	h := obj.Handle(0)
	n := scaled(cfg, 20_000)
	var elapsed time.Duration
	aborted := 0
	onTask(r, 0, func(pp prim.Proc) {
		for i := 0; i < 200; i++ {
			h.Invoke(objtype.CounterOp{Delta: 1})
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, ok := h.Invoke(objtype.CounterOp{Delta: 1}); !ok {
				aborted++
			}
		}
		elapsed = time.Since(t0)
	})
	if aborted > 0 {
		return fmt.Errorf("qa probe: %d of %d uncontended invokes aborted", aborted, n)
	}
	setLayer(o, "qa.invoke_solo_ns", float64(elapsed)/float64(n))
	return nil
}

// awaitLeader polls the stack's leader outputs until every process in
// procs names the same leader, itself a member of procs, and returns it.
func awaitLeader(leaders func() []int, procs []int, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		ls := leaders()
		l := ls[procs[0]]
		agreed := l != omega.NoLeader
		for _, p := range procs {
			agreed = agreed && ls[p] == l
		}
		if agreed {
			for _, p := range procs {
				if p == l {
					return l, nil
				}
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("no agreed leader among %v after %v (outputs %v)", procs, timeout, ls)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// probeElectorStabilize builds a stack with each registered elector, turns
// every candidate on, and times Build to the first agreed leader.
func probeElectorStabilize(cfg runConfig, o *outcome) error {
	for _, name := range elector.Names() {
		b, err := elector.ByName(name)
		if err != nil {
			return err
		}
		r := rt.New(3, nil)
		t0 := time.Now()
		st, err := deploy.Build[int64, objtype.CounterOp, int64](r, objtype.Counter{}, deploy.BuildConfig{Elector: b})
		if err != nil {
			r.Stop()
			return fmt.Errorf("elector probe %s: %w", name, err)
		}
		for _, inst := range st.Instances {
			inst.Candidate.Set(true)
		}
		_, err = awaitLeader(st.Leaders, []int{0, 1, 2}, 20*time.Second)
		took := time.Since(t0)
		r.Stop()
		if err != nil {
			return fmt.Errorf("elector probe %s: %w", name, err)
		}
		setLayer(o, "elector.stabilize_ms."+name, float64(took)/1e6)
	}
	return nil
}

// probeReelect watches a stable atomic-elector stack for leader churn,
// then slows its leader the way http-slow1 slows replica 2 and times the
// monitors' first fault count against it and the re-election.
func probeReelect(cfg runConfig, o *outcome) error {
	r := rt.New(3, nil)
	defer r.Stop()
	st, err := deploy.Build[int64, objtype.CounterOp, int64](r, objtype.Counter{}, deploy.BuildConfig{})
	if err != nil {
		return fmt.Errorf("reelect probe: %w", err)
	}
	for _, inst := range st.Instances {
		inst.Candidate.Set(true)
	}
	if _, err := awaitLeader(st.Leaders, []int{0, 1, 2}, 20*time.Second); err != nil {
		return fmt.Errorf("reelect probe: %w", err)
	}
	watch := scaledDur(cfg, 400*time.Millisecond)
	changes, prev := 0, st.Leaders()
	for t0 := time.Now(); time.Since(t0) < watch; time.Sleep(time.Millisecond) {
		cur := st.Leaders()
		for p := range cur {
			if cur[p] != prev[p] {
				changes++
			}
		}
		prev = cur
	}
	setLayer(o, "elector.leader_changes_per_s", float64(changes)/watch.Seconds())

	leader, err := awaitLeader(st.Leaders, []int{0, 1, 2}, 20*time.Second)
	if err != nil {
		return fmt.Errorf("reelect probe: %w", err)
	}
	charged := func() int64 {
		m, ok := st.FaultMatrix()
		if !ok {
			return 0
		}
		total := int64(0)
		for p := range m {
			total += m[p][leader]
		}
		return total
	}
	var timely []int
	for p := 0; p < 3; p++ {
		if p != leader {
			timely = append(timely, p)
		}
	}
	prof, err := serve.ParseProfile(httpFaultSpec)
	if err != nil {
		return err
	}
	base, t0 := charged(), time.Now()
	r.SetProfile(leader, prof)
	detect, reelect := time.Duration(0), time.Duration(0)
	for reelect == 0 {
		if detect == 0 && charged() > base {
			detect = time.Since(t0)
		}
		ls, moved := st.Leaders(), true
		for _, p := range timely {
			moved = moved && ls[p] != leader
		}
		if moved {
			reelect = time.Since(t0)
		}
		if time.Since(t0) > 30*time.Second {
			return fmt.Errorf("reelect probe: leader %d still named after 30 s (outputs %v)", leader, ls)
		}
		time.Sleep(50 * time.Microsecond)
	}
	if detect == 0 {
		detect = reelect // the outputs moved before a fault count did
	}
	setLayer(o, "monitor.fault_detect_ms", float64(detect)/1e6)
	setLayer(o, "elector.reelect_ms", float64(reelect)/1e6)
	return nil
}

// probeRTPrimitives times the substrate's step and register operations
// from a spawned task, as protocol code calls them.
func probeRTPrimitives(cfg runConfig, o *outcome) error {
	r := rt.New(1, nil)
	defer r.Stop()
	reg := prim.NewRegister(r, "probe", int64(0))
	ab := prim.NewAbortable(r, "probe-ab", int64(0))
	n := scaled(cfg, 50_000)
	timeIt := func(f func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		return float64(time.Since(t0)) / float64(n)
	}
	var sink int64
	onTask(r, 0, func(pp prim.Proc) {
		setLayer(o, "rt.step_ns", timeIt(func(int) { pp.Step() }))
		setLayer(o, "rt.reg_write_ns", timeIt(func(i int) { reg.Write(int64(i)) }))
		setLayer(o, "rt.reg_read_ns", timeIt(func(int) { sink += reg.Read() }))
		setLayer(o, "rt.abortable_write_ns", timeIt(func(i int) { ab.Write(int64(i)) }))
	})
	_ = sink
	return nil
}

// probeIdleSteps counts the steps an idle service takes: workers started,
// elector and monitors running, no request offered.
func probeIdleSteps(cfg runConfig, o *outcome) error {
	r := rt.New(httpReplicas, nil)
	defer r.Stop()
	b, err := serve.NewBackend(r, serve.BackendConfig{Object: "counter", DropRaw: true}, serve.Hooks{})
	if err != nil {
		return fmt.Errorf("idle probe: %w", err)
	}
	b.Start()
	time.Sleep(20 * time.Millisecond)
	s0, _ := rtTotals(r, httpReplicas)
	t0 := time.Now()
	time.Sleep(scaledDur(cfg, 300*time.Millisecond))
	s1, _ := rtTotals(r, httpReplicas)
	setLayer(o, "rt.idle_steps_per_s", float64(s1-s0)/time.Since(t0).Seconds())
	return nil
}

func probeDeployBuild(cfg runConfig, o *outcome) error {
	var ms []float64
	for i := 0; i < 5; i++ {
		r := rt.New(3, nil)
		t0 := time.Now()
		_, err := deploy.Build[int64, objtype.CounterOp, int64](r, objtype.Counter{}, deploy.BuildConfig{})
		ms = append(ms, float64(time.Since(t0))/1e6)
		r.Stop()
		if err != nil {
			return fmt.Errorf("deploy probe: %w", err)
		}
	}
	setLayer(o, "deploy.build_ms", median(ms))
	return nil
}

// probeTCPRegister times single register operations on the TCP substrate
// from the harness goroutine: one ABD operation is two quorum round trips.
func probeTCPRegister(cfg runConfig, o *outcome) error {
	r := rt.New(netProcs, nil)
	var nodes []*net.NodeServer
	defer func() {
		r.Stop()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	var peers []string
	for i := 0; i < netProcs; i++ {
		nd, err := net.ListenNode("127.0.0.1:0", net.NewNode(i))
		if err != nil {
			return fmt.Errorf("tcp probe: %w", err)
		}
		nodes = append(nodes, nd)
		peers = append(peers, nd.Addr())
	}
	sub, _, err := net.NewTCP(r, r.Stopping(), net.TCPConfig{Peers: peers, RetransmitEvery: netRetransmit}, net.Config{})
	if err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	reg := prim.NewRegister(sub, "probe", int64(0))
	var reads, writes []float64
	n := scaled(cfg, 60)
	for i := -3; i < n; i++ { // the first ops wait for the dials
		t0 := time.Now()
		reg.Write(int64(i))
		t1 := time.Now()
		got := reg.Read()
		t2 := time.Now()
		if got != int64(i) {
			return fmt.Errorf("tcp probe: read %d after writing %d", got, i)
		}
		if i >= 0 {
			writes = append(writes, usOf(t1.Sub(t0)))
			reads = append(reads, usOf(t2.Sub(t1)))
		}
	}
	setLayer(o, "net.tcp_write_us", median(writes))
	setLayer(o, "net.tcp_read_us", median(reads))
	return nil
}

// probeFabric counts the kernel steps one process spends per register
// operation on the deterministic fabric at delay 1 — the quorum
// protocol's cost as a count, exact and seed-free.
func probeFabric(cfg runConfig, o *outcome) error {
	k := sim.New(netProcs, sim.WithScheduleTrace(false))
	defer k.Shutdown()
	sub, _, err := net.NewFabric(k, net.FabricConfig{Seed: 1, MinDelay: 1, MaxDelay: 1}, net.Config{})
	if err != nil {
		return fmt.Errorf("fabric probe: %w", err)
	}
	reg := prim.NewRegister(sub, "probe", int64(0))
	const regOps = 100
	done, steps := false, int64(0)
	sub.Spawn(0, "probe", func(pp prim.Proc) {
		s0 := k.Metrics().Steps[0]
		for i := 0; i < regOps/2; i++ {
			reg.Write(int64(i))
			reg.Read()
		}
		steps, done = k.Metrics().Steps[0]-s0, true
	})
	for !done {
		res, err := k.Run(10_000)
		if err != nil {
			return fmt.Errorf("fabric probe: %w", err)
		}
		if res.Idle && !done {
			return fmt.Errorf("fabric probe: kernel idle before the register ops finished")
		}
	}
	setLayer(o, "net.fabric_steps_per_regop", float64(steps)/regOps)
	return nil
}
