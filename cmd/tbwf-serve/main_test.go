package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-n", "1"},
		{"-object", "nope"},
		{"-pace", "banana"},
		{"-pace", "9:steady"},   // target out of range for -n 4
		{"-omega", "abortable"}, // the old alias of -elector is gone
		{"-elector", "quantum"},
		{"-elector", "atomic-registers"}, // a telemetry name, not a flag value
		{"-badflag"},
		{"-substrate", "sim"},                     // the kernel is not a live substrate
		{"-net-peers", "127.0.0.1:1,127.0.0.1:2"}, // net options without -substrate net
		{"-net-listen", "127.0.0.1:0"},
		{"-n", "3", "-substrate", "net", "-net-peers", "127.0.0.1:1"}, // short peer list
		{"-n", "3", "-substrate", "net", "-net-peers", "a,b,c", "-net-node", "5"},
	}
	for _, args := range cases {
		if err := run(args, nil, nil); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// A bad -substrate value must name the accepted vocabulary in the error.
func TestSubstrateFlagValidation(t *testing.T) {
	err := run([]string{"-substrate", "sim"}, nil, nil)
	if err == nil {
		t.Fatal("run accepted -substrate sim")
	}
	for _, want := range []string{"sim", "rt", "net"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// -substrate net serves the object over loopback quorum registers and the
// stats document names the substrate.
func TestNetSubstrateServes(t *testing.T) {
	if testing.Short() {
		t.Skip("quorum-register serve needs elector stabilization over TCP; skipped in -short mode")
	}
	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-n", "3", "-object", "counter",
			"-substrate", "net"}, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	defer func() {
		close(stop)
		<-done
	}()

	resp, err := http.Post("http://"+addr+"/v1/invoke", "application/json",
		strings.NewReader(`{"op":{"kind":"add","delta":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	var inv struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil || !inv.OK {
		t.Fatalf("invoke: ok=%v err=%v", inv.OK, err)
	}
	resp.Body.Close()

	resp, err = http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Substrate string `json:"substrate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Substrate != "net" {
		t.Fatalf("stats substrate = %q, want net", stats.Substrate)
	}
}

// A bad Ω∆ elector (-elector) value must name the accepted vocabulary in
// the error, so an operator can self-correct without reading the source.
func TestOmegaFlagValidation(t *testing.T) {
	err := run([]string{"-elector", "quantum"}, nil, nil)
	if err == nil {
		t.Fatal("run accepted -elector quantum")
	}
	for _, want := range []string{"quantum", "atomic", "abortable"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestRunServesAndStops(t *testing.T) {
	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-n", "2", "-object", "counter",
			"-pace", "*:steady"}, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Post("http://"+addr+"/v1/invoke", "application/json",
		strings.NewReader(`{"op":{"kind":"add","delta":5}}`))
	if err != nil {
		t.Fatal(err)
	}
	var inv struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil || !inv.OK {
		t.Fatalf("invoke: ok=%v err=%v", inv.OK, err)
	}
	resp.Body.Close()

	resp, err = http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Object string `json:"object"`
		N      int    `json:"n"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Object != "counter" || stats.N != 2 {
		t.Fatalf("stats = %+v", stats)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not stop")
	}
}

// -elector selects the imported electors on the live runtime, and the
// stats document names the choice.
func TestElectorFlagServes(t *testing.T) {
	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-n", "2", "-object", "counter",
			"-elector", "reputation", "-pace", "*:steady"}, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	defer func() {
		close(stop)
		<-done
	}()

	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Omega   string `json:"omega"`
		Elector string `json:"elector"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Elector != "reputation" || stats.Omega != "reputation-penalty" {
		t.Fatalf("stats elector = %q / omega = %q", stats.Elector, stats.Omega)
	}
}

func TestRunReportsBusyAddr(t *testing.T) {
	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-n", "2"}, ready, stop)
	}()
	addr := <-ready
	defer func() {
		close(stop)
		<-done
	}()

	err := run([]string{"-addr", addr, "-n", "2"}, nil, nil)
	if err == nil {
		t.Fatal("second server on the same address succeeded")
	}
	if !strings.Contains(fmt.Sprint(err), "address already in use") {
		t.Logf("got error %v (accepting any bind failure)", err)
	}
}

// Shard flags are validated before anything is deployed.
func TestShardFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-batch", "8"},             // batch without shards
		{"-shard-elector", "nerio"}, // elector list without shards
		{"-admission", "rate=100"},  // admission without shards
		{"-shards", "-1"},
		{"-shards", "2", "-shard-elector", "quantum"},
		{"-shards", "2", "-admission", "rate=no"},
		{"-shards", "2", "-admission", "burst=4"}, // burst without rate
		{"-n", "3", "-shards", "2", "-substrate", "net"},
	}
	for _, args := range cases {
		if err := run(args, nil, nil); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// An empty -shard-elector entry is an error that names its position, not a
// shard silently deployed with the default elector.
func TestShardElectorRejectsEmptyEntry(t *testing.T) {
	for _, list := range []string{"atomic,,nerio", "nerio,", " ,atomic"} {
		ready := make(chan string, 1)
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-addr", "127.0.0.1:0", "-n", "2", "-shards", "2",
				"-shard-elector", list}, ready, stop)
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "empty") {
				t.Errorf("-shard-elector %q: err = %v, want an empty-entry error", list, err)
			}
		case <-ready:
			close(stop)
			<-done
			t.Errorf("-shard-elector %q accepted", list)
		}
	}
}

// A sharded serve answers the keyed API and reports its shard count.
func TestShardedServe(t *testing.T) {
	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-n", "2", "-shards", "2",
			"-batch", "4", "-shard-elector", "atomic,nerio"}, ready, stop)
	}()
	addr := <-ready
	base := "http://" + addr

	body := strings.NewReader(`{"key":"k1","op":{"kind":"add","delta":5}}`)
	resp, err := http.Post(base+"/v1/kv/invoke", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var inv struct {
		OK    bool `json:"ok"`
		Shard int  `json:"shard"`
		Resp  struct {
			Prev int64 `json:"prev"`
		} `json:"resp"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !inv.OK || inv.Resp.Prev != 0 {
		t.Fatalf("kv invoke: %d %+v", resp.StatusCode, inv)
	}

	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Shards  int      `json:"shards"`
		KVKinds []string `json:"kv_kinds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Shards != 2 || len(stats.KVKinds) != 4 {
		t.Fatalf("stats: %+v", stats)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not stop")
	}
}

// -pprof serves the profiler's index on a side listener, separate from
// the service address, and shuts it down with the service.
func TestPprofSideListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pprofAddr := ln.Addr().String()
	ln.Close() // free the port for run to rebind

	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-n", "2", "-pprof", pprofAddr}, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()

	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index does not list profiles: %.200s", body)
	}

	// The debug handlers must NOT be mounted on the service address.
	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("service address serves /debug/pprof/ — profiler leaked onto the service mux")
	}
}
