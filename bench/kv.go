package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tbwf/internal/rt"
	"tbwf/internal/serve/loadgen"
	"tbwf/internal/shard"
)

// kv-direct: the sharded keyspace driven in-process through Map.Submit —
// admission, the mpsc lanes and batched qa rounds, with no HTTP, no
// sockets and no slow replica. One generator goroutine offers a fixed
// open-loop rate in bursts; then a closed loop holds a window of
// operations outstanding to find the saturation throughput.
const (
	kvProcs    = 3
	kvShards   = 4
	kvMaxBatch = 16
	// ISSUE.md sized the lane queues at 256. One lane in some sixty
	// instances stalls for a quarter of a second (its replica goes that long
	// without leading) and the hot shard's lanes then overflow; a workload
	// at a quarter of saturation is not meant to test admission, so the
	// queues hold a second of the hot lane's traffic and a stall shows as
	// latency, not as refusals.
	kvQueueDepth = 1024
	kvKeys       = 64
	kvDist       = "zipf:1.2"
	kvBurst      = 32 // ops per burst
	kvBurstEvery = 4 * time.Millisecond
	kvWindow     = 256 // outstanding ops in the closed loop
	kvWarmupOps  = 100
	// The open-loop phase is 7/10 of an instance, the closed loop the rest.
	kvOpenShare = 0.7
	// kvDrainTimeout bounds the wait for outstanding ops when a phase
	// ends; with every process timely an op takes milliseconds.
	kvDrainTimeout = 30 * time.Second
)

const (
	kvPhaseWarm uint8 = iota
	kvPhaseOpen
	kvPhaseClosed
	kvPhaseFinal
)

// kvRec is one submission: the history entry plus the harness's own
// timestamps (ns since the stack's epoch) that latencies and spans are
// computed from.
type kvRec struct {
	kvOp
	due       int64 // when the schedule wanted it sent; equals invoke off the open loop
	submitted int64 // Map.Submit returned
	phase     uint8
	shed      bool // refused by admission
	acked     bool
}

type kvLaneItem struct {
	idx int
	pd  *shard.Pending
}

// kvStack is one deployment of the workload with its per-lane collectors.
type kvStack struct {
	r     *rt.Runtime
	m     *shard.Map
	epoch time.Time
	keys  []string

	// recs is allocated once at full length, so its header never changes
	// under the collectors: the generator fills entries [0,n) and each
	// collector completes the entries it was handed.
	recs []kvRec
	n    int
	// lanes[s][p] feeds the collector of shard s, replica p. A lane
	// delivers results in submission order, so its collector sees each
	// completion when it happens — a single collector over all lanes would
	// sit on one lane's op while another lane's earlier result waited.
	lanes      [][]chan kvLaneItem
	collectors sync.WaitGroup
	abort      chan struct{}
	// lastSeen[k] is the latest value a response showed for key k; a cas
	// expects it, as a read-modify-write client would.
	lastSeen    [kvKeys]atomic.Int64
	outstanding atomic.Int64
	tokens      chan struct{} // closed-loop window
}

func newKVStack() (*kvStack, error) {
	s := &kvStack{r: rt.New(kvProcs, nil), epoch: time.Now(), abort: make(chan struct{})}
	m, err := shard.New(s.r, shard.Config{Shards: kvShards, MaxBatch: kvMaxBatch, QueueDepth: kvQueueDepth})
	if err != nil {
		s.r.Stop()
		return nil, fmt.Errorf("kv-direct: %w", err)
	}
	s.m = m
	for k := 0; k < kvKeys; k++ {
		s.keys = append(s.keys, loadgen.KeyName(k))
	}
	// A lane holds at most its queue's depth plus the batch its worker has
	// popped; the buffer is sized so the generator never blocks on it.
	s.lanes = make([][]chan kvLaneItem, kvShards)
	for sh := range s.lanes {
		s.lanes[sh] = make([]chan kvLaneItem, kvProcs)
		for p := range s.lanes[sh] {
			s.lanes[sh][p] = make(chan kvLaneItem, kvQueueDepth+2*kvMaxBatch)
		}
	}
	s.tokens = make(chan struct{}, kvWindow)
	m.Start()
	return s, nil
}

func (s *kvStack) now() int64 { return int64(time.Since(s.epoch)) }

// startCollectors starts one collector per lane; recs is sized first.
func (s *kvStack) startCollectors() {
	for sh := range s.lanes {
		for p := range s.lanes[sh] {
			lane := s.lanes[sh][p]
			s.collectors.Add(1)
			go func() {
				defer s.collectors.Done()
				for it := range lane {
					select {
					case res := <-it.pd.Done():
						rec := &s.recs[it.idx]
						rec.response = s.now()
						rec.resp = res.Resp
						rec.acked = true
						v := res.Resp.Prev
						if ok, d := rec.mutates(); ok {
							v += d
						}
						s.lastSeen[rec.key].Store(v)
						if rec.phase == kvPhaseClosed {
							s.tokens <- struct{}{}
						}
						s.outstanding.Add(-1)
					case <-s.abort:
						return
					}
				}
			}()
		}
	}
}

// submit sends one operation; due is when the schedule wanted it sent.
func (s *kvStack) submit(key int, op shard.Op, due int64, phase uint8) {
	idx := s.n
	s.n++
	rec := &s.recs[idx]
	*rec = kvRec{kvOp: kvOp{key: key, kind: op.Kind, val: op.Val, old: op.Old}, phase: phase}
	pd := shard.NewPending()
	rec.invoke = s.now()
	rec.due = rec.invoke
	if phase == kvPhaseOpen {
		rec.due = due
	}
	sh, p, err := s.m.Submit(s.keys[key], -1, op, pd)
	rec.submitted = s.now()
	if err != nil {
		rec.shed = true
		if phase == kvPhaseClosed {
			s.tokens <- struct{}{}
		}
		return
	}
	s.outstanding.Add(1)
	s.lanes[sh][p] <- kvLaneItem{idx: idx, pd: pd}
}

// drain waits until nothing is outstanding.
func (s *kvStack) drain() error {
	deadline := time.Now().Add(kvDrainTimeout)
	for s.outstanding.Load() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("kv-direct: %d ops still outstanding after %v", s.outstanding.Load(), kvDrainTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// close stops the collectors and the runtime.
func (s *kvStack) close() {
	close(s.abort)
	for sh := range s.lanes {
		for p := range s.lanes[sh] {
			close(s.lanes[sh][p])
		}
	}
	s.collectors.Wait()
	s.r.Stop()
}

// kvDraw makes one operation from the seeded stream: a zipf key, and the
// mix add=6, get=3, cas=1 — reads beside writes, on purpose.
func (s *kvStack) kvDraw(rng *rand.Rand, sample loadgen.KeySampler) (int, shard.Op) {
	key := sample(rng)
	switch m := rng.Intn(10); {
	case m < 6:
		return key, shard.Op{Kind: shard.Add, Val: 1 + int64(rng.Intn(3))}
	case m < 9:
		return key, shard.Op{Kind: shard.Get}
	default:
		old := s.lastSeen[key].Load()
		return key, shard.Op{Kind: shard.CAS, Old: old, Val: old + 1}
	}
}

func (s *kvStack) shardStats() shard.Stats {
	var t shard.Stats
	for sh := 0; sh < kvShards; sh++ {
		st := s.m.Stats(sh)
		t.Accepted += st.Accepted
		t.Served += st.Served
		t.Batches += st.Batches
		t.ShedRateLimit += st.ShedRateLimit
		t.ShedQueueFull += st.ShedQueueFull
		t.ShedInFlight += st.ShedInFlight
	}
	return t
}

func runKVDirect(cfg runConfig, rec *recorder) (*outcome, error) {
	o := newOutcome()
	sample, err := loadgen.ParseDist(kvDist, kvKeys)
	if err != nil {
		return nil, err
	}
	openLen := time.Duration(cfg.seconds * kvOpenShare * float64(time.Second))
	closedLen := time.Duration(cfg.seconds*float64(time.Second)) - openLen
	bursts := int(openLen / kvBurstEvery)

	// Set-up: constructor to the 100th warm-up op, one op at a time.
	t0 := time.Now()
	s, err := newKVStack()
	if err != nil {
		return nil, err
	}
	defer s.close()
	// Room for every submission of the run: the open loop's ops are known,
	// the closed loop's are bounded generously by twenty times the
	// open-loop rate.
	s.recs = make([]kvRec, kvWarmupOps+bursts*kvBurst+int(closedLen.Seconds()*20*kvBurst/kvBurstEvery.Seconds())+kvKeys)
	s.startCollectors()
	warm := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	for n := 0; n < kvWarmupOps; n++ {
		s.submit(sample(warm), shard.Op{Kind: shard.Add, Val: 1}, 0, kvPhaseWarm)
		if err := s.drain(); err != nil {
			return nil, err
		}
	}
	o.raw.setupS = time.Since(t0).Seconds()
	if cfg.setupOnly {
		return o, nil
	}
	rng := rand.New(rand.NewSource(cfg.seed + int64(cfg.instance)<<32))

	// Open loop: a burst of kvBurst ops every kvBurstEvery, each due at
	// its burst's scheduled time.
	var late []float64
	steps0, _ := rtTotals(s.r, kvProcs)
	cpu0, stats0 := selfCPU(), s.shardStats()
	openStart := s.now()
	for b := 0; b < bursts; b++ {
		due := openStart + int64(b)*int64(kvBurstEvery)
		if d := due - s.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		late = append(late, float64(s.now()-due)/1e3)
		for n := 0; n < kvBurst; n++ {
			key, op := s.kvDraw(rng, sample)
			s.submit(key, op, due, kvPhaseOpen)
		}
	}
	if err := s.drain(); err != nil {
		return nil, err
	}
	openEnd := s.now()
	steps, maxGap := rtTotals(s.r, kvProcs)
	steps -= steps0
	cpu, stats := selfCPU()-cpu0, s.shardStats()

	// Closed loop: kvWindow ops outstanding until the phase's time is up.
	for n := 0; n < kvWindow; n++ {
		s.tokens <- struct{}{}
	}
	closedStart := s.now()
	closedEnd := closedStart + int64(closedLen)
	for s.now() < closedEnd {
		<-s.tokens
		if s.n+kvKeys >= len(s.recs) {
			return nil, fmt.Errorf("kv-direct: closed loop outran its record buffer (%d ops)", len(s.recs))
		}
		key, op := s.kvDraw(rng, sample)
		s.submit(key, op, 0, kvPhaseClosed)
	}
	if err := s.drain(); err != nil {
		return nil, err
	}

	// A final read of every key closes each chain.
	for k := 0; k < kvKeys; k++ {
		s.submit(k, shard.Op{Kind: shard.Get}, 0, kvPhaseFinal)
	}
	if err := s.drain(); err != nil {
		return nil, err
	}

	// Correctness over the whole acknowledged history.
	var hist []kvOp
	var openLat []float64
	var openDone, closedDone, timelyAttempted, timelyFailed int64
	for i := range s.recs[:s.n] {
		r := &s.recs[i]
		if r.phase == kvPhaseOpen || r.phase == kvPhaseClosed {
			timelyAttempted++
			if !r.acked {
				timelyFailed++
			}
		}
		if !r.acked {
			continue
		}
		hist = append(hist, r.kvOp)
		switch r.phase {
		case kvPhaseOpen:
			openDone++
			openLat = append(openLat, float64(r.response-r.due)/1e3)
		case kvPhaseClosed:
			if r.response <= closedEnd {
				closedDone++
			}
		}
	}
	bad := checkKV(o, hist)
	if openDone == 0 || closedDone == 0 {
		return nil, fmt.Errorf("kv-direct: no operations completed (open %d, closed %d)", openDone, closedDone)
	}
	o.attempted = timelyAttempted
	o.failed = min(timelyFailed+bad, timelyAttempted)
	o.raw.lat = openLat
	o.raw.ops, o.raw.opsSeconds = float64(closedDone), closedLen.Seconds()
	o.raw.cpuMS, o.raw.cpuOps = float64(cpu)/1e6, float64(openDone)
	o.raw.steps, o.raw.stepOps = float64(steps), float64(openDone)
	lateP99 := quantile(sortedCopy(late), 0.99)
	o.note("kv-direct: %d open-loop ops at %.0f ops/s over %.1f s (slowest %.0f ms, %d shed), %d closed-loop ops; generator p99 lateness %.0f us",
		openDone, float64(openDone)/(float64(openEnd-openStart)/1e9), openLen.Seconds(), slices.Max(openLat)/1e3, timelyFailed, closedDone, lateP99)
	o.gateGenerator(wlKV, lateP99)

	served := float64(max(stats.Served-stats0.Served, 1))
	batches := float64(max(stats.Batches-stats0.Batches, 1))
	shed := float64(stats.ShedRateLimit + stats.ShedQueueFull + stats.ShedInFlight -
		stats0.ShedRateLimit - stats0.ShedQueueFull - stats0.ShedInFlight)
	o.layer["shard.mean_batch"] = served / batches
	o.layer["shard.batches_per_kop"] = 1000 * batches / served
	o.layer["shard.shed_ratio"] = shed / (float64(stats.Accepted-stats0.Accepted) + shed)
	o.layer["rt.steps_per_op"] = o.raw.steps / o.raw.stepOps
	o.layer["rt.max_gap_timely_ms"] = float64(maxGap) / 1e6
	o.layer["host.gen_late_p99_us"] = lateP99
	o.layer["host.peak_rss_mb"] = peakRSSMB(0)
	slots := int64(0)
	for sh := 0; sh < kvShards; sh++ {
		slots += s.m.Slots(sh)
	}
	o.layer["qa.slots_allocated"] = float64(slots)
	if err := s.r.Stop(); err != nil { // a task that panicked is a failed run
		return nil, fmt.Errorf("kv-direct: %w", err)
	}
	if cfg.traced {
		spans := kvSpans(rec, s)
		var submit, wait []float64
		for _, sp := range spans {
			switch sp.Name {
			case spanShardSubmit:
				submit = append(submit, float64(sp.End-sp.Start))
			case spanShardWait:
				wait = append(wait, float64(sp.End-sp.Start)/1e3)
			}
		}
		o.layer["shard.submit_ns"] = median(submit)
		o.layer["shard.wait_p50_us"] = median(wait)
		setBudget(o, spans, spanRequest)
	}
	return o, nil
}

// Span names of one traced kv-direct request.
const (
	spanRequest     = "request"
	spanClientQueue = "client.queue"
	spanShardSubmit = "shard.submit"
	spanShardWait   = "shard.wait"
)

// kvSpans turns the open-loop records into spans: the request from its
// due time to its result, and inside it the wait for the generator to get
// to it, the call into Map.Submit, and the wait on Pending.Done. The
// timestamps are the ones the run took anyway, so tracing adds no work to
// the measured path here.
func kvSpans(rec *recorder, s *kvStack) []span {
	b := rec.buf()
	at := func(ns int64) time.Time { return s.epoch.Add(time.Duration(ns)) }
	for i := range s.recs[:s.n] {
		r := &s.recs[i]
		if r.phase != kvPhaseOpen || !r.acked {
			continue
		}
		req, root := int64(i), b.id()
		b.put(b.id(), root, req, spanClientQueue, at(r.due), at(r.invoke), 0)
		b.put(b.id(), root, req, spanShardSubmit, at(r.invoke), at(r.submitted), 0)
		b.put(b.id(), root, req, spanShardWait, at(r.submitted), at(r.response), 0)
		b.put(root, 0, req, spanRequest, at(r.due), at(r.response), 0)
	}
	return rec.all()
}
