package serve

import (
	"sync"
	"time"

	"tbwf/internal/omega"
	"tbwf/internal/serve/telemetry"
)

// metrics holds the server's hot-path instrumentation: all histograms and
// counters are preallocated per (replica, op-kind) at startup so the
// record path never allocates or locks.
type metrics struct {
	start   time.Time
	kinds   []string
	kindIdx map[string]int

	perOp    [][]*telemetry.Histogram // [replica][kind]
	perProc  []*telemetry.Histogram   // [replica], all kinds
	rejected []telemetry.Counter
	shardLat []*telemetry.Histogram // [shard], keyed-API latency; empty unsharded

	leaderChanges telemetry.Counter
	leaderHist    *telemetry.Series
	faultTraj     *telemetry.Series

	mu         sync.Mutex
	injections []Injection
}

func newMetrics(n int, kinds []string, shards int) *metrics {
	m := &metrics{
		start:      time.Now(),
		kinds:      kinds,
		kindIdx:    make(map[string]int, len(kinds)),
		perOp:      make([][]*telemetry.Histogram, n),
		perProc:    make([]*telemetry.Histogram, n),
		rejected:   make([]telemetry.Counter, n),
		leaderHist: telemetry.NewSeries(256),
		faultTraj:  telemetry.NewSeries(256),
	}
	for i, k := range kinds {
		m.kindIdx[k] = i
	}
	for p := 0; p < n; p++ {
		m.perProc[p] = &telemetry.Histogram{}
		m.perOp[p] = make([]*telemetry.Histogram, len(kinds))
		for i := range kinds {
			m.perOp[p][i] = &telemetry.Histogram{}
		}
	}
	for sh := 0; sh < shards; sh++ {
		m.shardLat = append(m.shardLat, &telemetry.Histogram{})
	}
	return m
}

func (m *metrics) recordServed(p int, kind string, lat time.Duration) {
	m.perProc[p].Record(lat)
	if i, ok := m.kindIdx[kind]; ok {
		m.perOp[p][i].Record(lat)
	}
}

func (m *metrics) recordInjection(inj Injection) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.injections = append(m.injections, inj)
}

func (m *metrics) injectionList() []Injection {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Injection, len(m.injections))
	copy(out, m.injections)
	return out
}

// Injection records one live profile retune performed through the fault
// endpoint.
type Injection struct {
	// AtMS is milliseconds since server start.
	AtMS int64 `json:"at_ms"`
	// Process is the retuned process; Spec the applied profile spec.
	Process int    `json:"process"`
	Spec    string `json:"spec"`
}

// MetricsReport is the full JSON document served on /v1/metrics: latency
// histograms per process and per operation, the TBWF stack's timeliness
// telemetry (leader identity and churn from Ω∆, step-gap estimates, abort
// counts, monitor fault-counter trajectories), and the injection history.
type MetricsReport struct {
	Object string `json:"object"`
	N      int    `json:"n"`
	// Substrate names the execution substrate ("rt" or "net").
	Substrate string `json:"substrate"`
	// Omega is the elector's implementation name (historical key);
	// Elector its canonical flag name.
	Omega     string           `json:"omega"`
	Elector   string           `json:"elector"`
	UptimeMS  int64            `json:"uptime_ms"`
	Processes []ProcessMetrics `json:"processes"`
	Leader    LeaderMetrics    `json:"leader"`
	Faults    FaultMetrics     `json:"faults"`
	// QASlots is the number of operation-log slots allocated so far.
	QASlots    int64       `json:"qa_slots"`
	Injections []Injection `json:"injections"`
	// Net carries quorum/transport telemetry on the net substrate and is
	// absent on rt.
	Net *NetMetrics `json:"net,omitempty"`
	// Shards is the sharded keyspace's per-stack telemetry (batching,
	// admission sheds, per-shard leader vectors); absent when unsharded.
	// KVInFlight is the keyed API's admitted-but-incomplete count.
	Shards     []ShardMetrics `json:"shards,omitempty"`
	KVInFlight int64          `json:"kv_in_flight,omitempty"`
}

// ShardMetrics is one keyspace shard's slice of the report: its own
// TBWF stack's elector and leader vector, its queue occupancy per
// replica, the batching amortization (MeanBatch > 1 means multiple ops
// rode one QA round), and the admission shed split (rate-limit sheds
// answer 429, queue-full and in-flight sheds 503).
type ShardMetrics struct {
	Shard      int               `json:"shard"`
	Omega      string            `json:"omega"`
	Elector    string            `json:"elector"`
	Leaders    []int             `json:"leaders"`
	QueueDepth []int             `json:"queue_depth"`
	Accepted   int64             `json:"accepted"`
	Served     int64             `json:"served"`
	Batches    int64             `json:"batches"`
	MeanBatch  float64           `json:"mean_batch"`
	BatchHist  []int64           `json:"batch_hist"`
	ShedRL     int64             `json:"shed_rate_limit"`
	ShedQF     int64             `json:"shed_queue_full"`
	ShedIF     int64             `json:"shed_in_flight"`
	QASlots    int64             `json:"qa_slots"`
	Latency    telemetry.Summary `json:"latency"`
}

// NetMetrics is the net substrate's slice of the report: the effective
// quorum sizes and the transport's send/drop counters (drops count dead,
// blocked, and backpressured peers; retransmission recovers them).
// EncodeErrors counts requests dropped because their value could not be
// encoded — retransmission does not recover those, the operation waits
// for good — and EncodeError is the first such error.
type NetMetrics struct {
	ReadQuorum   int    `json:"read_quorum"`
	WriteQuorum  int    `json:"write_quorum"`
	Sent         int64  `json:"sent"`
	Dropped      int64  `json:"dropped"`
	EncodeErrors int64  `json:"encode_errors"`
	EncodeError  string `json:"encode_error,omitempty"`
}

// ProcessMetrics is one replica's slice of the report.
type ProcessMetrics struct {
	P int `json:"p"`
	// Steps and the gap estimates come from the rt substrate: MaxGapUS is
	// the largest observed wall-clock gap between the process's steps,
	// AvgGapUS an EWMA, SinceLastStepUS the age of the latest step.
	// Parked counts the process's tasks waiting on an event; Idle says all
	// of them are, which tells "no work" (old latest step, idle) from "in
	// a gap" (old latest step, not idle). Idle time is in neither gap
	// estimate.
	Steps           int64   `json:"steps"`
	MaxGapUS        float64 `json:"max_gap_us"`
	AvgGapUS        float64 `json:"avg_gap_us"`
	SinceLastStepUS float64 `json:"since_last_step_us"`
	Parked          int     `json:"parked"`
	Idle            bool    `json:"idle"`
	// QueueDepth is the replica's current bounded-queue occupancy;
	// Served/Rejected count accepted and backpressured requests.
	QueueDepth int   `json:"queue_depth"`
	Served     int64 `json:"served"`
	Rejected   int64 `json:"rejected"`
	// Client mirrors core.Client's counters; Aborts is the ⊥ count.
	Client ClientMetrics `json:"client"`
	// QA mirrors the process's query-abortable handle counters.
	QA QAMetrics `json:"qa"`
	// Latency digests all of the replica's operations; PerOp splits by
	// operation kind.
	Latency telemetry.Summary            `json:"latency"`
	PerOp   map[string]telemetry.Summary `json:"per_op"`
}

// ClientMetrics is the wire form of core.Stats.
type ClientMetrics struct {
	Completed            int64   `json:"completed"`
	Invokes              int64   `json:"invokes"`
	Queries              int64   `json:"queries"`
	Aborts               int64   `json:"aborts"`
	SinceLastCompletedMS float64 `json:"since_last_completed_ms"`
}

// QAMetrics is the wire form of qa.HandleStats.
type QAMetrics struct {
	Proposals     int64 `json:"proposals"`
	NopProposals  int64 `json:"nop_proposals"`
	SlotsReplayed int64 `json:"slots_replayed"`
}

// LeaderMetrics reports Ω∆'s live outputs.
type LeaderMetrics struct {
	// Current is the leader every process currently agrees on, or -1.
	Current int `json:"current"`
	// PerProcess is each process's own leader output (-1 is the paper's ?).
	PerProcess []int `json:"per_process"`
	// Changes counts leader-output transitions since start (election
	// churn), sampled at the server's sampling period.
	Changes int64 `json:"changes"`
	// History is the sampled leader-vector trajectory.
	History []telemetry.Sample `json:"history"`
}

// FaultMetrics reports the elector's per-pair fault/penalty state.
type FaultMetrics struct {
	// Supported is false when the elector maintains no fault matrix (the
	// abortable-registers Ω∆); Matrix and Trajectory are then absent
	// rather than nil-meaning-something.
	Supported bool `json:"supported"`
	// Matrix[p][q] is the elector's fault counter of p against q now
	// (suspicions, penalties, or depositions, per the implementation).
	Matrix [][]int64 `json:"matrix,omitempty"`
	// Trajectory samples, for each process q, the total faults charged to
	// q summed over all processes — the degradation signature of an
	// untimely process is its column climbing.
	Trajectory []telemetry.Sample `json:"trajectory,omitempty"`
}

// sample runs the low-rate sampler: leader churn at cfg.SampleEvery,
// trajectory snapshots at cfg.TrajectoryEvery. It owns prev between
// iterations; everything it reads is a lock-free or Var-guarded tap. When
// the elector maintains no fault matrix the fault trajectory stays empty.
func (s *Server) sample() {
	defer close(s.samplerDone)
	tick := time.NewTicker(s.cfg.SampleEvery)
	defer tick.Stop()
	trajEvery := int(s.cfg.TrajectoryEvery / s.cfg.SampleEvery)
	if trajEvery < 1 {
		trajEvery = 1
	}
	prev := s.backend.Leaders(0)
	for i := 0; ; i++ {
		select {
		case <-s.stopping:
			return
		case <-tick.C:
		}
		cur := s.backend.Leaders(0)
		for p := range cur {
			if cur[p] != prev[p] {
				s.metrics.leaderChanges.Inc()
			}
		}
		prev = cur
		if i%trajEvery == 0 {
			vec := make([]int64, len(cur))
			for p, l := range cur {
				vec[p] = int64(l)
			}
			s.metrics.leaderHist.Append(vec)
			if m, ok := s.backend.FaultMatrix(0); ok {
				s.metrics.faultTraj.Append(columnSums(m))
			}
		}
	}
}

// columnSums reduces the fault matrix to per-monitored-process totals.
func columnSums(m [][]int64) []int64 {
	out := make([]int64, len(m))
	for _, row := range m {
		for q, v := range row {
			out[q] += v
		}
	}
	return out
}

// report assembles the full metrics document.
func (s *Server) report() MetricsReport {
	n := s.cfg.N
	now := time.Now()
	rep := MetricsReport{
		Object:     s.cfg.Object,
		N:          n,
		Substrate:  s.cfg.Substrate,
		Omega:      s.backend.ElectorName(0),
		Elector:    s.electorFlag,
		UptimeMS:   now.Sub(s.metrics.start).Milliseconds(),
		Processes:  make([]ProcessMetrics, n),
		QASlots:    s.backend.Slots(0),
		Injections: s.metrics.injectionList(),
	}
	if s.netSub != nil {
		rq, wq := s.netSub.Quorums()
		rep.Net = &NetMetrics{
			ReadQuorum:  rq,
			WriteQuorum: wq,
			Sent:        s.tcp.Sent(),
			Dropped:     s.tcp.Dropped(),
		}
		var err error
		if rep.Net.EncodeErrors, err = s.tcp.EncodeErrors(); err != nil {
			rep.Net.EncodeError = err.Error()
		}
	}
	for p := 0; p < n; p++ {
		ps := s.rt.ProcStats(p)
		cs := s.backend.ClientStats(0, p)
		qs := s.backend.QAStats(0, p)
		pm := ProcessMetrics{
			P:               p,
			Steps:           ps.Steps,
			MaxGapUS:        float64(ps.MaxGap) / 1e3,
			AvgGapUS:        float64(ps.AvgGap) / 1e3,
			SinceLastStepUS: float64(ps.SinceLastStep) / 1e3,
			Parked:          ps.Parked,
			Idle:            ps.Idle,
			QueueDepth:      s.backend.QueueDepth(0, p),
			Served:          s.metrics.perProc[p].Count(),
			Rejected:        s.metrics.rejected[p].Load(),
			Client: ClientMetrics{
				Completed: cs.Completed,
				Invokes:   cs.Invokes,
				Queries:   cs.Queries,
				Aborts:    cs.Aborts,
			},
			QA: QAMetrics{
				Proposals:     qs.Proposals,
				NopProposals:  qs.NopProposals,
				SlotsReplayed: qs.SlotsReplayed,
			},
			Latency: s.metrics.perProc[p].Summary(),
			PerOp:   make(map[string]telemetry.Summary, len(s.metrics.kinds)),
		}
		if cs.LastCompletedUnixNano > 0 {
			pm.Client.SinceLastCompletedMS = float64(now.UnixNano()-cs.LastCompletedUnixNano) / 1e6
		}
		for i, k := range s.metrics.kinds {
			pm.PerOp[k] = s.metrics.perOp[p][i].Summary()
		}
		rep.Processes[p] = pm
	}
	leaders := s.backend.Leaders(0)
	agreed := leaders[0]
	for _, l := range leaders {
		if l != agreed {
			agreed = omega.NoLeader
			break
		}
	}
	rep.Leader = LeaderMetrics{
		Current:    agreed,
		PerProcess: leaders,
		Changes:    s.metrics.leaderChanges.Load(),
		History:    s.metrics.leaderHist.Samples(),
	}
	if m, ok := s.backend.FaultMatrix(0); ok {
		rep.Faults = FaultMetrics{
			Supported:  true,
			Matrix:     m,
			Trajectory: s.metrics.faultTraj.Samples(),
		}
	} else {
		rep.Faults = FaultMetrics{Supported: false}
	}
	if s.kv != nil {
		rep.KVInFlight = s.kv.InFlight()
		for sh := 0; sh < s.kv.Shards(); sh++ {
			st := s.kv.Stats(sh)
			sm := ShardMetrics{
				Shard:     sh,
				Omega:     s.kv.ElectorName(sh),
				Elector:   s.kv.ElectorFlag(sh),
				Leaders:   s.kv.Leaders(sh),
				Accepted:  st.Accepted,
				Served:    st.Served,
				Batches:   st.Batches,
				MeanBatch: s.kv.MeanBatch(sh),
				BatchHist: s.kv.BatchHist(sh),
				ShedRL:    st.ShedRateLimit,
				ShedQF:    st.ShedQueueFull,
				ShedIF:    st.ShedInFlight,
				QASlots:   s.kv.Slots(sh),
				Latency:   s.metrics.shardLat[sh].Summary(),
			}
			for p := 0; p < n; p++ {
				sm.QueueDepth = append(sm.QueueDepth, s.kv.QueueDepth(sh, p))
			}
			rep.Shards = append(rep.Shards, sm)
		}
	}
	return rep
}
