package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tbwf/internal/rt"
	"tbwf/internal/shard"
)

// kvInvokeResponse is the keyed routes' 200 body as a client decodes it:
// invokeResponse with the shard always present and the response typed.
type kvInvokeResponse struct {
	OK        bool    `json:"ok"`
	Shard     int     `json:"shard"`
	Replica   int     `json:"replica"`
	Resp      kvResp  `json:"resp"`
	LatencyUS float64 `json:"latency_us"`
}

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// badAdmissions are specs ParseAdmission must refuse; FuzzParseAdmission
// starts from them and from TestParseAdmission's accepted specs.
var badAdmissions = []string{
	"burst=2",           // burst needs a rate
	"rate=0", "rate=-1", // non-positive rate
	"rate=abc",   //
	"inflight=0", //
	"tokens=5",   // unknown key
	"rate",       // not key=value
}

func TestParseAdmission(t *testing.T) {
	a, err := ParseAdmission("")
	if err != nil || a.RefillEvery != 0 || a.MaxInFlight != 0 {
		t.Fatalf("empty spec: %+v, %v", a, err)
	}
	a, err = ParseAdmission("rate=100,burst=5,inflight=32")
	if err != nil {
		t.Fatal(err)
	}
	if a.RefillEvery != int64(1e9)/100 || a.Burst != 5 || a.MaxInFlight != 32 {
		t.Fatalf("parsed %+v", a)
	}
	// Fractional rates are allowed (one token per 1/rate seconds).
	if a, err = ParseAdmission("rate=0.5"); err != nil || a.RefillEvery != int64(2e9) {
		t.Fatalf("rate=0.5: %+v, %v", a, err)
	}
	for _, bad := range badAdmissions {
		if _, err := ParseAdmission(bad); err == nil {
			t.Errorf("ParseAdmission(%q) accepted", bad)
		}
	}
}

func TestShardConfigValidation(t *testing.T) {
	// Shard tuning flags without shards are a config error, not silence.
	for _, cfg := range []Config{
		{N: 2, Object: "counter", MaxBatch: 8},
		{N: 2, Object: "counter", ShardElector: "nerio"},
		{N: 2, Object: "counter", Admission: "rate=10"},
		{N: 2, Object: "counter", Shards: -1},
		{N: 2, Object: "counter", Shards: 2, ShardElector: "quantum"},
		{N: 2, Object: "counter", Shards: 2, Admission: "rate=no"},
		{N: 2, Object: "counter", Shards: 2, Substrate: "net"},
	} {
		if s, err := New(cfg); err == nil {
			s.Stop()
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestKVUnshardedGuard: the keyed endpoints refuse cleanly on a server
// started without shards.
func TestKVUnshardedGuard(t *testing.T) {
	_, ts := startServer(t, Config{N: 2, Object: "counter"})
	code, out := postJSON(t, ts.URL+"/v1/kv/invoke", map[string]any{
		"key": "k", "op": map[string]any{"kind": "add", "delta": 1},
	})
	if code != http.StatusBadRequest || out["ok"] != false {
		t.Fatalf("kv invoke on unsharded server: %d %v", code, out)
	}
	resp, err := http.Get(ts.URL + "/v1/kv/read?key=k")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kv read on unsharded server: %d", resp.StatusCode)
	}
}

// TestKVSingleShardParity: with one shard the keyed API is the unsharded
// path plus a key column — a deterministic sequential op sequence folds
// exactly like the model map, every op landing on shard 0.
func TestKVSingleShardParity(t *testing.T) {
	_, ts := startServer(t, Config{N: 2, Object: "counter", Shards: 1})
	model := map[string]int64{}
	step := func(key string, op map[string]any, wantPrev int64, wantSwapped bool) {
		t.Helper()
		code, out := postJSON(t, ts.URL+"/v1/kv/invoke", map[string]any{"key": key, "op": op})
		if code != http.StatusOK || out["ok"] != true {
			t.Fatalf("kv %v on %q: %d %v", op, key, code, out)
		}
		if sh := out["shard"].(float64); sh != 0 {
			t.Fatalf("one shard, got shard %v", sh)
		}
		resp := out["resp"].(map[string]any)
		if int64(resp["prev"].(float64)) != wantPrev {
			t.Fatalf("kv %v on %q: prev %v, want %d", op, key, resp["prev"], wantPrev)
		}
		if resp["swapped"] != wantSwapped {
			t.Fatalf("kv %v on %q: swapped %v, want %v", op, key, resp["swapped"], wantSwapped)
		}
	}
	step("a", map[string]any{"kind": "put", "value": 5}, model["a"], false)
	model["a"] = 5
	step("b", map[string]any{"kind": "add", "delta": 3}, model["b"], false)
	model["b"] += 3
	step("a", map[string]any{"kind": "add", "delta": -2}, model["a"], false)
	model["a"] -= 2
	step("a", map[string]any{"kind": "cas", "old": 3, "new": 9}, model["a"], true)
	model["a"] = 9
	step("a", map[string]any{"kind": "cas", "old": 3, "new": 11}, model["a"], false)
	step("b", map[string]any{"kind": "get"}, model["b"], false)

	// The read endpoint is a keyed get.
	resp, err := http.Get(ts.URL + "/v1/kv/read?key=a")
	if err != nil {
		t.Fatal(err)
	}
	var read kvInvokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&read); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !read.OK || read.Resp.Prev != model["a"] || !read.Resp.Found {
		t.Fatalf("kv read a: %+v, model %v", read, model)
	}

	// Stats surface the keyed vocabulary for load generators.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsReport
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Shards != 1 || len(stats.KVKinds) != 4 || stats.KVServed != 7 {
		t.Fatalf("stats: shards %d kinds %v kv_served %d", stats.Shards, stats.KVKinds, stats.KVServed)
	}
}

// TestKVRateLimited429: an exhausted token bucket answers 429 with
// Retry-After — the client's fault, distinct from the 503 overload
// signals — and shows up as a rate-limit shed, not a queue-full one.
func TestKVRateLimited429(t *testing.T) {
	s, ts := startServer(t, Config{
		N: 2, Object: "counter", Shards: 2,
		Admission: "rate=0.001,burst=2", // refill is ~17min away: only the burst admits
	})
	for i := 0; i < 2; i++ {
		code, out := postJSON(t, ts.URL+"/v1/kv/invoke", map[string]any{
			"key": "hot", "op": map[string]any{"kind": "add", "delta": 1},
		})
		if code != http.StatusOK {
			t.Fatalf("burst op %d: %d %v", i, code, out)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/kv/invoke", "application/json",
		jsonBody(t, map[string]any{"key": "hot", "op": map[string]any{"kind": "add", "delta": 1}}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-burst op: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	sh := s.kv.ShardFor("hot")
	if st := s.kv.Stats(sh); st.ShedRateLimit != 1 || st.ShedQueueFull != 0 || st.ShedInFlight != 0 {
		t.Fatalf("shard %d stats %+v: want exactly one rate-limit shed", sh, st)
	}
	rep := s.report()
	if rep.Shards[sh].ShedRL != 1 {
		t.Fatalf("metrics shard %d: %+v", sh, rep.Shards[sh])
	}
}

// stalledKVServer starts a sharded server whose replicas never step:
// queued keyed ops are admitted but can never complete, so queue and
// in-flight occupancy are fully test-controlled. Stop interrupts the
// pacing gates, so teardown stays prompt.
func stalledKVServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Pacing = []rt.Profile{rt.Steady(time.Hour), rt.Steady(time.Hour)}
	s, ts := startServer(t, cfg)
	// Let the workers reach their first pacing gate: each pops at most one
	// batch, then stalls inside the invocation for the rest of the test.
	time.Sleep(100 * time.Millisecond)
	return s, ts.URL
}

// fillQueues direct-submits until every replica queue of key's shard is
// full, returning how many ops were admitted.
func fillQueues(t *testing.T, s *Server, key string) int {
	t.Helper()
	admitted, full := 0, 0
	for i := 0; full < 2*s.N(); i++ {
		if i > 10_000 {
			t.Fatal("queues never filled")
		}
		err := s.kv.Submit(-1, WireOp{Kind: "add", Key: key, Delta: 1}, NewPending("add"))
		switch err {
		case nil:
			admitted, full = admitted+1, 0
		case shard.ErrQueueFull:
			full++
		default:
			t.Fatalf("fill: %v", err)
		}
	}
	return admitted
}

// TestKVQueueFull503: a full replica queue answers 503 (service
// overloaded), not 429.
func TestKVQueueFull503(t *testing.T) {
	s, url := stalledKVServer(t, Config{N: 2, Object: "counter", Shards: 1, QueueDepth: 2, MaxBatch: 2})
	fillQueues(t, s, "k")
	resp, err := http.Post(url+"/v1/kv/invoke", "application/json",
		jsonBody(t, map[string]any{"key": "k", "op": map[string]any{"kind": "add", "delta": 1}}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queues: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if st := s.kv.Stats(0); st.ShedQueueFull == 0 || st.ShedRateLimit != 0 {
		t.Fatalf("stats %+v: want queue-full sheds only", st)
	}
}

// TestKVInFlightCap503: the global in-flight cap answers 503 once
// admitted operations stop completing.
func TestKVInFlightCap503(t *testing.T) {
	s, url := stalledKVServer(t, Config{
		N: 2, Object: "counter", Shards: 2, QueueDepth: 8,
		Admission: "inflight=3",
	})
	for i := 0; i < 3; i++ {
		if err := s.kv.Submit(-1, WireOp{Kind: "add", Key: "k", Delta: 1}, NewPending("add")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	resp, err := http.Post(url+"/v1/kv/invoke", "application/json",
		jsonBody(t, map[string]any{"key": "other", "op": map[string]any{"kind": "get"}}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripped in-flight cap: %d, want 503", resp.StatusCode)
	}
	if s.kv.InFlight() != 3 {
		t.Fatalf("in-flight %d, want 3", s.kv.InFlight())
	}
	var shed int64
	for sh := 0; sh < s.kv.Shards(); sh++ {
		shed += s.kv.Stats(sh).ShedInFlight
	}
	if shed != 1 {
		t.Fatalf("in-flight sheds %d, want 1", shed)
	}
}

// An empty ShardElector entry is an error that names its position: it
// must not deploy that shard with the default elector.
func TestShardElectorRejectsEmptyEntry(t *testing.T) {
	for list, pos := range map[string]string{"atomic,,nerio": "entry 2", "nerio,": "entry 2", ",atomic": "entry 1"} {
		s, err := New(Config{N: 2, Object: "counter", Shards: 2, ShardElector: list})
		if err == nil {
			s.Stop()
			t.Errorf("ShardElector %q accepted", list)
			continue
		}
		if !strings.Contains(err.Error(), pos) || !strings.Contains(err.Error(), "empty") {
			t.Errorf("ShardElector %q: error %q does not name the empty %s", list, err, pos)
		}
	}
}

// TestKVShardElectorCycle: the shard elector list cycles and surfaces in
// the metrics report.
func TestKVShardElectorCycle(t *testing.T) {
	s, _ := startServer(t, Config{N: 2, Object: "counter", Shards: 3, ShardElector: "atomic,nerio"})
	rep := s.report()
	if len(rep.Shards) != 3 {
		t.Fatalf("%d shard sections", len(rep.Shards))
	}
	want := []string{"atomic", "nerio", "atomic"}
	for i, sm := range rep.Shards {
		if sm.Elector != want[i] {
			t.Fatalf("shard %d elector %q, want %q", i, sm.Elector, want[i])
		}
		if len(sm.Leaders) != 2 || len(sm.QueueDepth) != 2 {
			t.Fatalf("shard %d: %+v", i, sm)
		}
	}
}
