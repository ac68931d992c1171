// Command tbwf-serve deploys a TBWF-replicated object on the real-time
// substrate and serves it over HTTP (see internal/serve for the API).
//
// Usage:
//
//	tbwf-serve                          # 4-replica counter on :8080
//	tbwf-serve -n 6 -object jobqueue
//	tbwf-serve -pace '*:steady:10us;2:growing:400:2ms:1.5'
//	tbwf-serve -addr 127.0.0.1:9090 -queue-depth 128
//	tbwf-serve -elector abortable          # Theorem 15's Ω∆ from abortable registers
//	tbwf-serve -elector nerio              # epoch/lease elector (bake-off)
//	tbwf-serve -n 3 -substrate net         # ABD quorum registers over loopback TCP
//	tbwf-serve -n 3 -substrate net \
//	  -net-peers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 -net-node 0
//	                                       # one replica per OS process (run 3x)
//	tbwf-serve -shards 8                   # sharded keyspace on /v1/kv/*
//	tbwf-serve -shards 8 -batch 32 -shard-elector atomic,nerio \
//	  -admission rate=5000,burst=100,inflight=4096
//
// The pacing spec assigns each process's initial step profile; the
// /v1/fault endpoint retunes a live process afterwards (and /v1/netfault
// severs replica links on the net substrate). SIGINT/SIGTERM shut the
// service down cleanly.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"tbwf/internal/elector"
	"tbwf/internal/serve"
)

func main() {
	if err := run(os.Args[1:], nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tbwf-serve:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until stop closes or a termination
// signal arrives. If ready is non-nil the bound address is sent on it once
// the listener is up (tests bind :0 and read the real port back).
func run(args []string, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("tbwf-serve", flag.ContinueOnError)
	n := fs.Int("n", 4, "number of replicas (processes), at least 2")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	object := fs.String("object", "counter",
		fmt.Sprintf("object to deploy, one of %s", strings.Join(serve.Objects(), ", ")))
	pace := fs.String("pace", "",
		"initial pacing, e.g. '*:steady:10us;2:growing:400:2ms:1.5' (empty: full speed)")
	queueDepth := fs.Int("queue-depth", 64, "per-replica bounded request queue depth")
	electorFlag := fs.String("elector", "",
		fmt.Sprintf("Ω∆ leader elector: %s (default atomic)", strings.Join(elector.Names(), " | ")))
	substrate := fs.String("substrate", "rt",
		"execution substrate: rt | net (net = ABD quorum registers over TCP)")
	netPeers := fs.String("net-peers", "",
		"comma-separated replica node addresses (net substrate; empty: in-process loopback nodes)")
	netNode := fs.Int("net-node", 0, "this process's replica index (net substrate, with -net-peers)")
	netListen := fs.String("net-listen", "",
		"replica node listen address (net substrate, with -net-peers; default: its -net-peers entry)")
	shards := fs.Int("shards", 0,
		"sharded keyspace: number of independent TBWF stacks behind /v1/kv/* (0: disabled)")
	shardElector := fs.String("shard-elector", "",
		"comma-separated elector list cycled across shards (empty: every shard uses -elector)")
	batch := fs.Int("batch", 0,
		"max keyed ops folded into one QA round per worker turn (default 16; 1 disables batching)")
	admission := fs.String("admission", "",
		"keyed admission policy, e.g. 'rate=5000,burst=100,inflight=4096' (empty: admit everything)")
	pprofAddr := fs.String("pprof", "",
		"serve net/http/pprof on this side address, e.g. 127.0.0.1:6060 (empty: disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *substrate {
	case "rt", "net":
	default:
		return fmt.Errorf("unknown substrate %q (accepted values: rt, net)", *substrate)
	}
	var peers []string
	if *netPeers != "" {
		for _, p := range strings.Split(*netPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
	}
	if *substrate != "net" && (len(peers) > 0 || *netListen != "") {
		return fmt.Errorf("-net-peers/-net-listen need -substrate net")
	}

	pacing, err := serve.ParsePacing(*pace, *n)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		N:          *n,
		Object:     *object,
		Elector:    *electorFlag,
		QueueDepth: *queueDepth,
		Pacing:     pacing,
		Substrate:  *substrate,
		Net: serve.NetOptions{
			Peers:  peers,
			Node:   *netNode,
			Listen: *netListen,
		},
		Shards:       *shards,
		ShardElector: *shardElector,
		MaxBatch:     *batch,
		Admission:    *admission,
	})
	if err != nil {
		return err
	}

	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			srv.Stop()
			return fmt.Errorf("pprof listener: %w", err)
		}
		// A separate listener and mux: the profiler must not share the
		// service port (it would skew the very latency being profiled and
		// expose debug handlers on the service address).
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Handler: mux}
		go pprofSrv.Serve(pln)
		fmt.Fprintf(os.Stderr, "tbwf-serve: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		if pprofSrv != nil {
			pprofSrv.Close()
		}
		srv.Stop()
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	fmt.Fprintf(os.Stderr, "tbwf-serve: %s with %d replicas on http://%s (substrate %s)\n",
		*object, *n, ln.Addr(), *substrate)

	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "tbwf-serve: %v, shutting down\n", s)
	case <-stop:
	case err := <-serveErr:
		if pprofSrv != nil {
			pprofSrv.Close()
		}
		srv.Stop()
		return err
	}
	httpSrv.Close()
	if pprofSrv != nil {
		pprofSrv.Close()
	}
	return srv.Stop()
}
