// Package serve is the live TBWF service layer: it deploys a
// TBWF-replicated object (internal/core over internal/qa and internal/omega)
// on the real-time substrate (internal/rt) and exposes it over HTTP.
//
// Each of the n processes is one replica: it runs its share of the Ω∆ and
// monitor tasks plus a single worker task that drains a bounded request
// queue through the process's TBWF client — so a request's latency is
// exactly the time for that replica, at its current timeliness, to push
// the operation through the paper's Figure 7 protocol. A full queue
// produces immediate backpressure (shard.ErrQueueFull → HTTP 503) instead
// of unbounded buffering.
//
// The JSON API. The four operation routes are one handler (handleOp) over
// one dispatch; the keyed pair needs Config.Shards > 0 (kv.go):
//
//	POST /v1/invoke     {"replica":0,"op":{"kind":"add","delta":1}}
//	GET  /v1/read?replica=0        — the object's read-only op, if any
//	POST /v1/kv/invoke  {"key":"k42","op":{"kind":"add","delta":1}}
//	GET  /v1/kv/read?key=k42
//	GET  /v1/stats                 — light liveness snapshot
//	GET  /v1/metrics               — full MetricsReport (latency histograms,
//	                                 leader churn, step gaps, fault counters)
//	POST /v1/fault   {"process":2,"spec":"growing:400:2ms:1.5"}
//
// The fault endpoint retunes a live process's pacing profile, so the
// paper's degradation story can be triggered and watched on a running
// service: the retuned replica's latency collapses, the timely replicas'
// p99 stays bounded.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/net"
	"tbwf/internal/prim"
	"tbwf/internal/rt"
	"tbwf/internal/shard"
)

// Config sizes a server.
type Config struct {
	// N is the number of replicas (processes), at least 2.
	N int
	// Object names the deployed type: one of Objects().
	Object string
	// Elector selects the Ω∆ implementation by flag name: "atomic"
	// (default, Figure 3 from atomic registers), "abortable" (Figures 4–6,
	// Theorem 15's abortable-registers-only construction), "nerio"
	// (epoch/lease) or "reputation" (penalty scores) — any name
	// elector.Parse accepts.
	Elector string
	// Omega is the legacy alias for Elector (the old -omega flag
	// vocabulary). Setting both to different electors is an error.
	Omega string
	// QueueDepth bounds each replica's request queue (default 64).
	QueueDepth int
	// SnapshotComponents sizes the snapshot object (default N).
	SnapshotComponents int
	// Pacing assigns each process's initial profile (nil: all full speed).
	Pacing []rt.Profile
	// SampleEvery is the leader-churn sampling period (default 2ms);
	// TrajectoryEvery the fault/leader trajectory period (default 100ms).
	SampleEvery, TrajectoryEvery time.Duration
	// Substrate selects the execution substrate: "rt" (default; the
	// in-process shared-memory runtime) or "net" (ABD quorum registers
	// over TCP, one replica node per process — see internal/net).
	Substrate string
	// Net configures the net substrate; ignored unless Substrate is "net".
	Net NetOptions

	// Shards > 0 additionally deploys a sharded keyspace (internal/shard)
	// next to the unsharded object: Shards independent TBWF stacks over
	// the same N replicas, served on /v1/kv/*. Only on the rt substrate.
	Shards int
	// ShardElector is a comma-separated elector list cycled across shards
	// (shard s gets entry s mod len); empty inherits Elector/Omega for
	// every shard. Requires Shards > 0.
	ShardElector string
	// MaxBatch bounds how many queued keyed ops one worker turn folds into
	// a single QA round (default 16; 1 disables batching). Requires
	// Shards > 0.
	MaxBatch int
	// Admission is the keyed API's overload policy, in ParseAdmission's
	// "rate=R,burst=B,inflight=M" vocabulary; empty admits everything.
	// Requires Shards > 0.
	Admission string
}

// NetOptions shapes a net-substrate deploy.
type NetOptions struct {
	// Peers lists the N replica node addresses of a distributed deploy.
	// Empty means loopback mode: the server hosts all N replica nodes
	// in-process on ephemeral loopback ports.
	Peers []string
	// Node is this OS process's replica index in a distributed deploy
	// (Peers set): the server hosts that one node, animates only that
	// process's tasks, and serves only that replica.
	Node int
	// Listen is the node's listen address in a distributed deploy
	// (default: the Node entry of Peers).
	Listen string
	// RetransmitEvery overrides the quorum retransmit interval (default
	// 5ms in loopback mode, the transport's 50ms distributed).
	RetransmitEvery time.Duration
}

// Server is a deployed TBWF object behind an HTTP handler. Create with
// New, serve via any http.Server (it implements http.Handler), stop with
// Stop.
type Server struct {
	cfg Config
	// electorFlag is the resolved elector's canonical flag name, surfaced
	// in /v1/stats and /v1/metrics next to the implementation name.
	electorFlag string
	rt          *rt.Runtime
	backend     Backend
	metrics     *metrics
	// kv is the sharded keyspace behind /v1/kv/*; nil when Shards is 0.
	kv  Backend
	mux *http.ServeMux

	// netSub/tcp/nodes are set when the stack runs on the net substrate:
	// the quorum substrate, its transport (the /v1/netfault hook), and the
	// replica node servers this OS process hosts. only is the single
	// locally-served replica of a distributed deploy, -1 otherwise.
	netSub *net.Substrate
	tcp    *net.TCP
	nodes  []*net.NodeServer
	only   int

	stopping    chan struct{}
	stopOnce    sync.Once
	samplerDone chan struct{}

	// ablateAbandonRelease, for the cancellation test's negative control
	// only, makes an abandoning handler Release its Pending.
	ablateAbandonRelease bool
}

// New builds the runtime, deploys the object, starts the replica workers
// and the telemetry sampler.
func New(cfg Config) (*Server, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("serve: n = %d, need at least 2 replicas", cfg.N)
	}
	builder, err := elector.Resolve(cfg.Elector, cfg.Omega)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 2 * time.Millisecond
	}
	if cfg.TrajectoryEvery <= 0 {
		cfg.TrajectoryEvery = 100 * time.Millisecond
	}
	if cfg.Pacing != nil && len(cfg.Pacing) != cfg.N {
		return nil, fmt.Errorf("serve: %d pacing profiles for %d processes", len(cfg.Pacing), cfg.N)
	}
	switch cfg.Substrate {
	case "", "rt":
		cfg.Substrate = "rt"
	case "net":
	default:
		return nil, fmt.Errorf("serve: unknown substrate %q (want rt or net)", cfg.Substrate)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("serve: shards = %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		if cfg.ShardElector != "" || cfg.MaxBatch != 0 || cfg.Admission != "" {
			return nil, fmt.Errorf("serve: shard-elector/batch/admission need shards > 0")
		}
	} else if cfg.Substrate != "rt" {
		return nil, fmt.Errorf("serve: sharded keyspace needs the rt substrate, not %q", cfg.Substrate)
	}
	shardElectors := []elector.Builder{builder}
	if cfg.ShardElector != "" {
		shardElectors = shardElectors[:0]
		for _, name := range strings.Split(cfg.ShardElector, ",") {
			eb, err := elector.Parse(strings.TrimSpace(name))
			if err != nil {
				return nil, fmt.Errorf("serve: shard elector: %w", err)
			}
			shardElectors = append(shardElectors, eb)
		}
	}
	admission, err := ParseAdmission(cfg.Admission)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		electorFlag: builder.FlagName(),
		rt:          rt.New(cfg.N, nil),
		only:        -1,
		stopping:    make(chan struct{}),
		samplerDone: make(chan struct{}),
	}
	// fail unwinds a partially-built server: the sampler is not running
	// yet, so Stop's samplerDone wait would hang — tear down by hand.
	fail := func(err error) (*Server, error) {
		s.rt.Stop()
		for _, nd := range s.nodes {
			nd.Close()
		}
		return nil, err
	}
	for p, prof := range cfg.Pacing {
		s.rt.SetProfile(p, prof)
	}
	var sub prim.Substrate = s.rt
	if cfg.Substrate == "net" {
		var err error
		if sub, err = s.buildNet(); err != nil {
			return fail(err)
		}
	}
	// The hooks close over s; s.metrics is installed before Start spawns
	// the workers, so no event can fire while it is still nil.
	b, err := NewBackend(sub, BackendConfig{
		Object:             cfg.Object,
		QueueDepth:         cfg.QueueDepth,
		SnapshotComponents: cfg.SnapshotComponents,
		// Only the fuzzer's linearizability oracle consumes Result.Raw;
		// the HTTP path drops it to keep the live path boxing-free.
		DropRaw: true,
		Build:   deploy.BuildConfig{Elector: builder},
	}, Hooks{
		Served: func(_, p int, pd *Pending, _ int, lat time.Duration) { s.metrics.recordServed(p, pd.Kind, lat) },
		Shed:   func(_, p int, _ error) { s.metrics.rejected[p].Inc() },
	})
	if err != nil {
		return fail(err)
	}
	s.backend = b
	if cfg.Shards > 0 {
		kv, err := newKVBackend(sub, shard.ConfigOf[Result]{
			Shards:     cfg.Shards,
			QueueDepth: cfg.QueueDepth,
			MaxBatch:   cfg.MaxBatch,
			Electors:   shardElectors,
			Admission:  admission,
			Hooks: Hooks{
				Served: func(sh, _ int, _ *Pending, _ int, lat time.Duration) { s.metrics.shardLat[sh].Record(lat) },
			},
		})
		if err != nil {
			return fail(err)
		}
		s.kv = kv
	}
	s.metrics = newMetrics(cfg.N, b.Kinds(), cfg.Shards)
	b.Start()
	if s.kv != nil {
		s.kv.Start()
	}
	go s.sample()

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/invoke", s.handleOp(s.backend, false, false))
	s.mux.HandleFunc("/v1/read", s.handleOp(s.backend, false, true))
	s.mux.HandleFunc("/v1/kv/invoke", s.handleOp(s.kv, true, false))
	s.mux.HandleFunc("/v1/kv/read", s.handleOp(s.kv, true, true))
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/fault", s.handleFault)
	s.mux.HandleFunc("/v1/netfault", s.handleNetFault)
	return s, nil
}

// buildNet assembles the net substrate: ABD quorum registers over TCP,
// hosted on the server's runtime. With no peer list the server hosts all
// N replica nodes in-process on loopback ports (a one-binary deploy whose
// registers still go through real sockets); with one, this OS process
// hosts node cfg.Net.Node, animates only that process's tasks, and serves
// only that replica.
func (s *Server) buildNet() (prim.Substrate, error) {
	opts := s.cfg.Net
	peers := opts.Peers
	ncfg := net.Config{}
	retransmit := opts.RetransmitEvery
	if len(peers) == 0 {
		for i := 0; i < s.cfg.N; i++ {
			srv, err := net.ListenNode("127.0.0.1:0", net.NewNode(i))
			if err != nil {
				return nil, fmt.Errorf("serve: node %d: %w", i, err)
			}
			s.nodes = append(s.nodes, srv)
			peers = append(peers, srv.Addr())
		}
		if retransmit <= 0 {
			retransmit = 5 * time.Millisecond // loopback RTTs are microseconds
		}
	} else {
		if len(peers) != s.cfg.N {
			return nil, fmt.Errorf("serve: %d net peers for %d replicas", len(peers), s.cfg.N)
		}
		if opts.Node < 0 || opts.Node >= s.cfg.N {
			return nil, fmt.Errorf("serve: net node %d out of range [0,%d)", opts.Node, s.cfg.N)
		}
		listen := opts.Listen
		if listen == "" {
			listen = peers[opts.Node]
		}
		srv, err := net.ListenNode(listen, net.NewNode(opts.Node))
		if err != nil {
			return nil, fmt.Errorf("serve: node %d: %w", opts.Node, err)
		}
		s.nodes = append(s.nodes, srv)
		ncfg = net.Config{Restrict: true, Only: opts.Node}
		s.only = opts.Node
	}
	sub, tcp, err := net.NewTCP(s.rt, s.rt.Stopping(), net.TCPConfig{
		Peers:           peers,
		RetransmitEvery: retransmit,
	}, ncfg)
	if err != nil {
		return nil, err
	}
	s.netSub, s.tcp = sub, tcp
	return sub, nil
}

// N returns the replica count.
func (s *Server) N() int { return s.cfg.N }

// Runtime exposes the underlying substrate (tests retune profiles through
// it directly; external callers use the fault endpoint).
func (s *Server) Runtime() *rt.Runtime { return s.rt }

// Stop shuts the service down: pending handlers return 503, workers and
// the sampler exit, and the runtime's tasks unwind. Idempotent.
func (s *Server) Stop() error {
	s.stopOnce.Do(func() { close(s.stopping) })
	err := s.rt.Stop()
	for _, nd := range s.nodes {
		nd.Close()
	}
	<-s.samplerDone
	return err
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]any{"ok": false, "error": fmt.Sprintf(format, args...)})
}

// invokeRequest is the request envelope of the operation routes.
type invokeRequest struct {
	// Key routes a keyed operation to its shard (the kv routes only).
	Key string `json:"key"`
	// Replica routes the operation; nil or -1 round-robins (within the
	// key's shard on the kv routes).
	Replica *int   `json:"replica"`
	Op      WireOp `json:"op"`
}

// invokeResponse is the 200 body. Shard is the key's shard — 0 on the
// unkeyed routes, whose object is a one-shard deployment.
type invokeResponse struct {
	OK        bool    `json:"ok"`
	Shard     int     `json:"shard"`
	Replica   int     `json:"replica"`
	Resp      any     `json:"resp"`
	LatencyUS float64 `json:"latency_us"`
}

// handleOp is the handler behind all four operation routes. b is the
// route's backend (nil: the keyed routes of an unsharded server); keyed
// says requests carry a routing key; read makes it the GET shorthand for
// the backend's read-only operation instead of a POSTed envelope.
func (s *Server) handleOp(b Backend, keyed, read bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if b == nil {
			writeError(w, http.StatusBadRequest, "server is not sharded (start with shards > 0)")
			return
		}
		method := http.MethodPost
		if read {
			method = http.MethodGet
		}
		if r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, "%s only", method)
			return
		}
		var req invokeRequest
		if read {
			op, err := b.ReadOp()
			if err != nil {
				writeError(w, http.StatusBadRequest, "object %s: %v", s.cfg.Object, err)
				return
			}
			query := r.URL.Query()
			req.Op, req.Key = op, query.Get("key")
			if q := query.Get("replica"); q != "" {
				v, err := strconv.Atoi(q)
				if err != nil {
					writeError(w, http.StatusBadRequest, "bad replica %q", q)
					return
				}
				req.Replica = &v
			}
		} else if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if keyed {
			if req.Key == "" {
				writeError(w, http.StatusBadRequest, "missing key")
				return
			}
			req.Op.Key = req.Key
		}
		// A negative replica leaves the choice to the round-robin cursor of
		// the shard the op routes to.
		p := -1
		if req.Replica != nil {
			p = *req.Replica
		}
		if s.only >= 0 {
			// Distributed net deploy: this process animates exactly one
			// replica; its peers serve the others.
			if p >= 0 && p != s.only {
				writeError(w, http.StatusBadRequest, "replica %d is served by its own process (this process serves %d)", p, s.only)
				return
			}
			p = s.only
		}
		s.dispatch(w, r, b, p, req.Op)
	}
}

// dispatch submits op to b and waits for its completion, the client's
// disconnect, or shutdown. It is the one place where an admission
// verdict becomes a status code: a rate-limited submission answers 429
// (the client should slow down), a full replica queue or a tripped
// in-flight cap 503 (the service is overloaded), both with Retry-After;
// anything else Submit refuses is a bad request.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, b Backend, p int, op WireOp) {
	pd := NewPending(op.Kind)
	if err := b.Submit(p, op, pd); err != nil {
		code := http.StatusServiceUnavailable
		switch err {
		case shard.ErrRateLimited:
			code = http.StatusTooManyRequests
		case shard.ErrQueueFull, shard.ErrInFlight:
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, code, map[string]any{
			"ok": false, "shard": pd.Shard, "replica": pd.Replica, "error": err.Error(),
		})
		return
	}
	select {
	case res := <-pd.Done():
		writeJSON(w, http.StatusOK, invokeResponse{
			OK:        true,
			Shard:     pd.Shard,
			Replica:   pd.Replica,
			Resp:      res.Resp,
			LatencyUS: float64(res.Latency) / 1e3,
		})
		// This handler received the Result, so it owns the pooled parts.
		ReleaseResult(res)
		pd.Release()
	case <-r.Context().Done():
		// Client gone; the worker will still complete the operation (it is
		// already queued) and its buffered completion channel absorbs the result.
		// An abandoner never releases (shard.PendingOf's ownership rule).
		if s.ablateAbandonRelease {
			pd.Release()
		}
	case <-s.stopping:
		writeError(w, http.StatusServiceUnavailable, "server stopping")
	}
}

// statsReport is the light /v1/stats document. Omega carries the
// elector's implementation name (kept under the historical key for
// consumers of the old document); Elector its canonical flag name.
type statsReport struct {
	Object    string   `json:"object"`
	N         int      `json:"n"`
	Substrate string   `json:"substrate"`
	Omega     string   `json:"omega"`
	Elector   string   `json:"elector"`
	UptimeMS  int64    `json:"uptime_ms"`
	Kinds     []string `json:"kinds"`
	Served    []int64  `json:"served"`
	Rejected  []int64  `json:"rejected"`
	Queued    []int    `json:"queued"`
	Completed []int64  `json:"completed"`
	// Shards is the sharded keyspace's stack count (0: not sharded);
	// KVKinds its op vocabulary, KVServed/KVShed its aggregate counters.
	Shards   int      `json:"shards"`
	KVKinds  []string `json:"kv_kinds,omitempty"`
	KVServed int64    `json:"kv_served,omitempty"`
	KVShed   int64    `json:"kv_shed,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	rep := statsReport{
		Object:    s.cfg.Object,
		N:         s.cfg.N,
		Substrate: s.cfg.Substrate,
		Omega:     s.backend.ElectorName(0),
		Elector:   s.electorFlag,
		UptimeMS:  time.Since(s.metrics.start).Milliseconds(),
		Kinds:     s.backend.Kinds(),
	}
	for p := 0; p < s.cfg.N; p++ {
		rep.Served = append(rep.Served, s.metrics.perProc[p].Count())
		rep.Rejected = append(rep.Rejected, s.metrics.rejected[p].Load())
		rep.Queued = append(rep.Queued, s.backend.QueueDepth(0, p))
		rep.Completed = append(rep.Completed, s.backend.ClientStats(0, p).Completed)
	}
	if s.kv != nil {
		rep.Shards = s.kv.Shards()
		rep.KVKinds = s.kv.Kinds()
		for sh := 0; sh < s.kv.Shards(); sh++ {
			st := s.kv.Stats(sh)
			rep.KVServed += st.Served
			rep.KVShed += st.ShedRateLimit + st.ShedQueueFull + st.ShedInFlight
		}
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.report())
}

type faultRequest struct {
	Process int    `json:"process"`
	Spec    string `json:"spec"`
}

func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req faultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Process < 0 || req.Process >= s.cfg.N {
		writeError(w, http.StatusBadRequest, "process %d out of range [0,%d)", req.Process, s.cfg.N)
		return
	}
	prof, err := ParseProfile(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.rt.SetProfile(req.Process, prof)
	inj := Injection{
		AtMS:    time.Since(s.metrics.start).Milliseconds(),
		Process: req.Process,
		Spec:    req.Spec,
	}
	s.metrics.recordInjection(inj)
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "injection": inj})
}

type netFaultRequest struct {
	Node    int  `json:"node"`
	Blocked bool `json:"blocked"`
}

// handleNetFault severs or restores this process's transport link to one
// replica node — the network-fault analogue of /v1/fault's pacing retune.
// Blocking a minority leaves the quorum registers (and so the service)
// live; blocking a majority stalls operations until a heal. Only
// meaningful on the net substrate.
func (s *Server) handleNetFault(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.tcp == nil {
		writeError(w, http.StatusBadRequest, "substrate %s has no network links (start with substrate net)", s.cfg.Substrate)
		return
	}
	var req netFaultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Node < 0 || req.Node >= s.cfg.N {
		writeError(w, http.StatusBadRequest, "node %d out of range [0,%d)", req.Node, s.cfg.N)
		return
	}
	s.tcp.Block(req.Node, req.Blocked)
	inj := Injection{
		AtMS:    time.Since(s.metrics.start).Milliseconds(),
		Process: req.Node,
		Spec:    fmt.Sprintf("net-block=%v", req.Blocked),
	}
	s.metrics.recordInjection(inj)
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "node": req.Node, "blocked": req.Blocked})
}
