package serve

import (
	"encoding/json"
	stdnet "net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The service runs unchanged on the net substrate: a loopback deploy
// hosts all replica nodes in-process, every register operation is an ABD
// quorum round over real TCP sockets, and the wire protocol, stats, and
// metrics documents all still work — now naming the substrate and
// carrying quorum/transport telemetry.
func TestNetSubstrateServes(t *testing.T) {
	if testing.Short() {
		t.Skip("quorum-register serve needs elector stabilization over TCP; skipped in -short mode")
	}
	_, ts := startServer(t, Config{N: 3, Object: "counter", Substrate: "net"})
	for i := 0; i < 3; i++ {
		code, out := postJSON(t, ts.URL+"/v1/invoke", map[string]any{
			"replica": -1, "op": map[string]any{"kind": "add", "delta": 1},
		})
		if code != http.StatusOK || out["ok"] != true {
			t.Fatalf("invoke %d: %d %v", i, code, out)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/read?replica=0")
	if err != nil {
		t.Fatal(err)
	}
	var read invokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&read); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m, ok := read.Resp.(map[string]any); !ok || m["prev"] != float64(3) {
		t.Fatalf("read after 3 adds: %+v", read)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsReport
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Substrate != "net" {
		t.Fatalf("stats substrate = %q, want net", stats.Substrate)
	}

	rep := fetchMetrics(t, ts.URL)
	if rep.Substrate != "net" {
		t.Fatalf("metrics substrate = %q, want net", rep.Substrate)
	}
	if rep.Net == nil {
		t.Fatal("metrics carry no net block on the net substrate")
	}
	if rep.Net.ReadQuorum != 2 || rep.Net.WriteQuorum != 2 {
		t.Fatalf("quorums %d/%d, want majority 2/2", rep.Net.ReadQuorum, rep.Net.WriteQuorum)
	}
	if rep.Net.Sent == 0 {
		t.Fatal("transport sent no messages while serving quorum operations")
	}
	if rep.Net.EncodeErrors != 0 || rep.Net.EncodeError != "" {
		t.Fatalf("every deployed value type is registered, yet the transport could not encode: %+v", rep.Net)
	}
}

// /v1/netfault blocks one replica link live: with a majority still
// reachable operations keep completing and the transport records drops;
// the injection lands in the metrics history; the rt substrate rejects
// the endpoint outright.
func TestNetFaultEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("quorum-register serve needs elector stabilization over TCP; skipped in -short mode")
	}
	_, ts := startServer(t, Config{N: 3, Object: "counter", Substrate: "net"})

	code, out := postJSON(t, ts.URL+"/v1/netfault", map[string]any{"node": 2, "blocked": true})
	if code != http.StatusOK || out["ok"] != true {
		t.Fatalf("netfault: %d %v", code, out)
	}
	// Majority (nodes 0, 1) still reachable: operations complete.
	code, out = postJSON(t, ts.URL+"/v1/invoke", map[string]any{
		"replica": 0, "op": map[string]any{"kind": "add", "delta": 1},
	})
	if code != http.StatusOK || out["ok"] != true {
		t.Fatalf("invoke with one node blocked: %d %v", code, out)
	}
	code, _ = postJSON(t, ts.URL+"/v1/netfault", map[string]any{"node": 2, "blocked": false})
	if code != http.StatusOK {
		t.Fatalf("unblock: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/netfault", map[string]any{"node": 9, "blocked": true}); code != http.StatusBadRequest {
		t.Fatalf("out-of-range node: %d", code)
	}

	rep := fetchMetrics(t, ts.URL)
	if rep.Net == nil || rep.Net.Dropped == 0 {
		t.Fatalf("blocked link recorded no drops: %+v", rep.Net)
	}
	var seen int
	for _, inj := range rep.Injections {
		if inj.Process == 2 && (inj.Spec == "net-block=true" || inj.Spec == "net-block=false") {
			seen++
		}
	}
	if seen != 2 {
		t.Fatalf("net injections not in history: %+v", rep.Injections)
	}

	// The rt substrate has no links to sever.
	_, rts := startServer(t, Config{N: 2, Object: "counter"})
	if code, _ := postJSON(t, rts.URL+"/v1/netfault", map[string]any{"node": 0, "blocked": true}); code != http.StatusBadRequest {
		t.Fatalf("rt netfault: %d", code)
	}
}

// Config validation for the substrate seam: unknown substrates and
// ill-formed net options are construction errors, not latent deploys.
func TestNetConfigValidation(t *testing.T) {
	if _, err := New(Config{N: 2, Object: "counter", Substrate: "sim"}); err == nil {
		t.Error("substrate sim accepted (the simulation kernel is not a live substrate)")
	}
	if _, err := New(Config{N: 3, Object: "counter", Substrate: "net",
		Net: NetOptions{Peers: []string{"127.0.0.1:1"}}}); err == nil {
		t.Error("peer list shorter than n accepted")
	}
	if _, err := New(Config{N: 3, Object: "counter", Substrate: "net",
		Net: NetOptions{Peers: []string{"a", "b", "c"}, Node: 5}}); err == nil {
		t.Error("out-of-range node accepted")
	}
}

// freePorts reserves n distinct loopback ports by binding and closing
// listeners; the brief close-to-rebind window is the standard test
// compromise for coordinating peer addresses up front.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]stdnet.Listener, n)
	for i := range addrs {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// Three Servers, each hosting one replica node and animating only its own
// process — the in-binary version of the README's three-terminal TCP
// quickstart. Each process serves only its own replica, requests for
// other replicas are refused with a pointer to the owning process, and an
// operation issued on any of them settles through cross-process quorums.
func TestNetDistributedDeploy(t *testing.T) {
	if testing.Short() {
		t.Skip("three full stacks over TCP; skipped in -short mode")
	}
	peers := freePorts(t, 3)
	fronts := make([]*httptest.Server, 3)
	for i := range fronts {
		srv, err := New(Config{
			N: 3, Object: "counter", Substrate: "net",
			Net: NetOptions{Peers: peers, Node: i},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		fronts[i] = ts
		t.Cleanup(func() {
			ts.Close()
			srv.Stop()
		})
	}
	for i, ts := range fronts {
		code, out := postJSON(t, ts.URL+"/v1/invoke", map[string]any{
			"replica": -1, "op": map[string]any{"kind": "add", "delta": 1},
		})
		if code != http.StatusOK || out["ok"] != true {
			t.Fatalf("process %d invoke: %d %v", i, code, out)
		}
		if int(out["replica"].(float64)) != i {
			t.Fatalf("process %d served replica %v", i, out["replica"])
		}
	}
	// A replica owned by a peer is refused.
	code, _ := postJSON(t, fronts[0].URL+"/v1/invoke", map[string]any{
		"replica": 2, "op": map[string]any{"kind": "add", "delta": 1},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("foreign replica accepted: %d", code)
	}
	// The counter saw all three adds: a read on any process observes 3.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(fronts[1].URL + "/v1/read")
		if err != nil {
			t.Fatal(err)
		}
		var read invokeResponse
		err = json.NewDecoder(resp.Body).Decode(&read)
		resp.Body.Close()
		if err == nil {
			if m, ok := read.Resp.(map[string]any); ok && m["prev"] == float64(3) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("read never observed 3 adds: %+v", read)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
