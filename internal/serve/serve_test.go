package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tbwf/internal/prim"
	"tbwf/internal/rt"
	"tbwf/internal/shard"
)

func TestParseProfile(t *testing.T) {
	good := []string{"steady", "steady:100us", "growing:400:2ms:1.5", "growing:1:1ns:1"}
	for _, spec := range good {
		if _, err := ParseProfile(spec); err != nil {
			t.Errorf("ParseProfile(%q): %v", spec, err)
		}
	}
	bad := []string{"", "warp", "steady:-1ms", "steady:1ms:2ms", "growing", "growing:0:1ms:2",
		"growing:10:bogus:2", "growing:10:1ms:0.5", "growing:10:1ms:2:extra"}
	for _, spec := range bad {
		if _, err := ParseProfile(spec); err == nil {
			t.Errorf("ParseProfile(%q) accepted", spec)
		}
	}
}

func TestParsePacing(t *testing.T) {
	profs, err := ParsePacing("*:steady:10us;2:growing:400:2ms:1.5", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 4 {
		t.Fatalf("got %d profiles", len(profs))
	}
	if d := profs[0](1); d != 10*time.Microsecond {
		t.Errorf("process 0 step delay = %v", d)
	}
	// Process 2's growing profile yields zero during its burst.
	if d := profs[2](1); d != 0 {
		t.Errorf("process 2 first burst step delay = %v", d)
	}
	if _, err := ParsePacing("9:steady", 4); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := ParsePacing("junk", 4); err == nil {
		t.Error("entry without profile accepted")
	}
	if profs, err = ParsePacing("  ", 3); err != nil || len(profs) != 3 {
		t.Errorf("blank pacing: %v, %d profiles", err, len(profs))
	}
}

func TestObjectsList(t *testing.T) {
	names := Objects()
	want := map[string]bool{"counter": true, "register": true, "snapshot": true, "jobqueue": true}
	if len(names) != len(want) {
		t.Fatalf("Objects() = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected object %q", n)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{N: 1, Object: "counter"}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := New(Config{N: 3, Object: "philosopher"}); err == nil {
		t.Error("unknown object accepted")
	}
	if _, err := New(Config{N: 3, Object: "counter", Omega: "quantum"}); err == nil {
		t.Error("unknown omega kind accepted")
	}
	short, err := ParsePacing("", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{N: 3, Object: "counter", Pacing: short}); err == nil {
		t.Error("mismatched pacing length accepted")
	}
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		if err := s.Stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func TestInvokeReadStatsCounter(t *testing.T) {
	_, ts := startServer(t, Config{N: 2, Object: "counter"})

	// Three adds, round-robin routed.
	for i := 0; i < 3; i++ {
		code, out := postJSON(t, ts.URL+"/v1/invoke", map[string]any{
			"replica": -1, "op": map[string]any{"kind": "add", "delta": 1},
		})
		if code != http.StatusOK || out["ok"] != true {
			t.Fatalf("invoke %d: %d %v", i, code, out)
		}
	}
	// A read observes the three increments.
	resp, err := http.Get(ts.URL + "/v1/read?replica=0")
	if err != nil {
		t.Fatal(err)
	}
	var read invokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&read); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	m, ok := read.Resp.(map[string]any)
	if !ok || m["prev"] != float64(3) {
		t.Fatalf("read after 3 adds: %+v", read)
	}
	if read.Replica != 0 {
		t.Fatalf("read routed to replica %d", read.Replica)
	}

	// Stats reflect the served operations.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsReport
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var served int64
	for _, v := range stats.Served {
		served += v
	}
	if served != 4 || stats.Object != "counter" || stats.N != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.Omega != "atomic-registers" {
		t.Fatalf("stats omega = %q, want atomic-registers", stats.Omega)
	}
	if stats.Elector != "atomic" {
		t.Fatalf("stats elector = %q, want atomic", stats.Elector)
	}
}

// The service must run on the abortable-register Ω∆ too (Theorem 15 live):
// operations complete, /v1/stats reports the kind, and the metrics report
// has no fault matrix (Figures 4–6 have no monitors).
func TestAbortableOmegaServes(t *testing.T) {
	s, ts := startServer(t, Config{N: 2, Object: "counter", Omega: "abortable"})
	for i := 0; i < 3; i++ {
		code, out := postJSON(t, ts.URL+"/v1/invoke", map[string]any{
			"replica": -1, "op": map[string]any{"kind": "add", "delta": 1},
		})
		if code != http.StatusOK || out["ok"] != true {
			t.Fatalf("invoke %d: %d %v", i, code, out)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsReport
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Omega != "abortable-registers" {
		t.Fatalf("stats omega = %q, want abortable-registers", stats.Omega)
	}
	if stats.Elector != "abortable" {
		t.Fatalf("stats elector = %q, want abortable", stats.Elector)
	}
	// The fault block must say "not supported" explicitly — never a nil
	// matrix masquerading as "no faults yet" — and carry no trajectory.
	rep := s.report()
	if rep.Faults.Supported {
		t.Fatalf("abortable Ω∆ claims fault-matrix support: %+v", rep.Faults)
	}
	if len(rep.Faults.Matrix) != 0 || len(rep.Faults.Trajectory) != 0 {
		t.Fatalf("unsupported fault block carries data: %+v", rep.Faults)
	}
	// And the rendered /v1/metrics document says so too.
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	faults, ok := doc["faults"].(map[string]any)
	if !ok {
		t.Fatalf("metrics document has no faults block: %v", doc)
	}
	if faults["supported"] != false {
		t.Fatalf("metrics faults.supported = %v, want false", faults["supported"])
	}
	if _, present := faults["matrix"]; present {
		t.Fatalf("unsupported faults block renders a matrix: %v", faults)
	}
}

// The two imported electors serve live traffic through the same seam:
// operations complete, the stats and metrics documents name the elector,
// and both maintain a real fault/penalty matrix.
func TestImportedElectorsServe(t *testing.T) {
	for _, name := range []string{"nerio", "reputation"} {
		name := name
		t.Run(name, func(t *testing.T) {
			s, ts := startServer(t, Config{N: 2, Object: "counter", Elector: name})
			for i := 0; i < 3; i++ {
				code, out := postJSON(t, ts.URL+"/v1/invoke", map[string]any{
					"replica": -1, "op": map[string]any{"kind": "add", "delta": 1},
				})
				if code != http.StatusOK || out["ok"] != true {
					t.Fatalf("invoke %d: %d %v", i, code, out)
				}
			}
			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			var stats statsReport
			if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if stats.Elector != name {
				t.Fatalf("stats elector = %q, want %q", stats.Elector, name)
			}
			rep := s.report()
			if rep.Elector != name {
				t.Fatalf("metrics elector = %q, want %q", rep.Elector, name)
			}
			if !rep.Faults.Supported || len(rep.Faults.Matrix) != 2 {
				t.Fatalf("%s fault block: %+v", name, rep.Faults)
			}
		})
	}
}

// Config.Elector and the legacy Config.Omega arbitrate exactly like the
// CLI flags: agreement is fine, conflict is a construction error.
func TestElectorOmegaConfigArbitration(t *testing.T) {
	s, err := New(Config{N: 2, Object: "counter", Elector: "nerio", Omega: "nerio-lease"})
	if err != nil {
		t.Fatalf("agreeing spellings rejected: %v", err)
	}
	s.Stop()
	if _, err := New(Config{N: 2, Object: "counter", Elector: "nerio", Omega: "abortable"}); err == nil {
		t.Fatal("conflicting elector/omega accepted")
	}
	if _, err := New(Config{N: 2, Object: "counter", Elector: "warp"}); err == nil {
		t.Fatal("unknown elector accepted")
	}
}

func TestInvokeValidation(t *testing.T) {
	_, ts := startServer(t, Config{N: 2, Object: "jobqueue"})

	// Unknown kind.
	code, _ := postJSON(t, ts.URL+"/v1/invoke", map[string]any{
		"op": map[string]any{"kind": "launch"},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown kind: %d", code)
	}
	// Replica out of range.
	code, _ = postJSON(t, ts.URL+"/v1/invoke", map[string]any{
		"replica": 7, "op": map[string]any{"kind": "enq", "value": 1},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("bad replica: %d", code)
	}
	// jobqueue has no read-only op.
	resp, err := http.Get(ts.URL + "/v1/read")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("jobqueue read: %d", resp.StatusCode)
	}
	// GET on invoke.
	resp, err = http.Get(ts.URL + "/v1/invoke")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET invoke: %d", resp.StatusCode)
	}
}

func TestJobQueueFIFO(t *testing.T) {
	_, ts := startServer(t, Config{N: 2, Object: "jobqueue"})
	for _, v := range []int{11, 22, 33} {
		code, out := postJSON(t, ts.URL+"/v1/invoke", map[string]any{
			"replica": 0, "op": map[string]any{"kind": "enq", "value": v},
		})
		if code != http.StatusOK {
			t.Fatalf("enq %d: %d %v", v, code, out)
		}
	}
	for _, want := range []float64{11, 22, 33} {
		code, out := postJSON(t, ts.URL+"/v1/invoke", map[string]any{
			"replica": 1, "op": map[string]any{"kind": "deq"},
		})
		if code != http.StatusOK {
			t.Fatalf("deq: %d %v", code, out)
		}
		resp := out["resp"].(map[string]any)
		if resp["ok"] != true || resp["value"] != want {
			t.Fatalf("deq got %v, want %v", resp, want)
		}
	}
}

func TestSnapshotUpdateScan(t *testing.T) {
	_, ts := startServer(t, Config{N: 2, Object: "snapshot", SnapshotComponents: 3})
	code, out := postJSON(t, ts.URL+"/v1/invoke", map[string]any{
		"replica": 0, "op": map[string]any{"kind": "update", "index": 2, "value": 42},
	})
	if code != http.StatusOK {
		t.Fatalf("update: %d %v", code, out)
	}
	code, out = postJSON(t, ts.URL+"/v1/invoke", map[string]any{
		"replica": 1, "op": map[string]any{"kind": "scan"},
	})
	if code != http.StatusOK {
		t.Fatalf("scan: %d %v", code, out)
	}
	view := out["resp"].(map[string]any)["view"].([]any)
	if len(view) != 3 || view[2] != float64(42) {
		t.Fatalf("scan view: %v", view)
	}
	// Out-of-range update rejected at the wire.
	code, _ = postJSON(t, ts.URL+"/v1/invoke", map[string]any{
		"op": map[string]any{"kind": "update", "index": 9, "value": 1},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("oob update: %d", code)
	}
}

func TestFaultEndpointRetunesProfile(t *testing.T) {
	s, ts := startServer(t, Config{N: 2, Object: "counter"})

	code, out := postJSON(t, ts.URL+"/v1/fault", map[string]any{
		"process": 1, "spec": "growing:100:5ms:1.2",
	})
	if code != http.StatusOK || out["ok"] != true {
		t.Fatalf("fault: %d %v", code, out)
	}
	// Bad spec and bad process rejected.
	if code, _ := postJSON(t, ts.URL+"/v1/fault", map[string]any{"process": 1, "spec": "warp:9"}); code != http.StatusBadRequest {
		t.Fatalf("bad spec: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/fault", map[string]any{"process": 5, "spec": "steady"}); code != http.StatusBadRequest {
		t.Fatalf("bad process: %d", code)
	}
	// The injection is in the metrics report.
	rep := fetchMetrics(t, ts.URL)
	if len(rep.Injections) != 1 || rep.Injections[0].Process != 1 || rep.Injections[0].Spec != "growing:100:5ms:1.2" {
		t.Fatalf("injections: %+v", rep.Injections)
	}
	_ = s
}

func fetchMetrics(t *testing.T, base string) MetricsReport {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep MetricsReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestMetricsShape(t *testing.T) {
	_, ts := startServer(t, Config{N: 3, Object: "counter", SampleEvery: time.Millisecond, TrajectoryEvery: 5 * time.Millisecond})
	for i := 0; i < 6; i++ {
		code, out := postJSON(t, ts.URL+"/v1/invoke", map[string]any{
			"replica": i % 3, "op": map[string]any{"kind": "add", "delta": 2},
		})
		if code != http.StatusOK {
			t.Fatalf("invoke: %d %v", code, out)
		}
	}
	time.Sleep(20 * time.Millisecond) // let the sampler tick
	rep := fetchMetrics(t, ts.URL)
	if rep.Object != "counter" || rep.N != 3 || len(rep.Processes) != 3 {
		t.Fatalf("report head: %+v", rep)
	}
	var served, completed int64
	for _, p := range rep.Processes {
		served += p.Served
		completed += p.Client.Completed
		if p.Served > 0 && p.Latency.Count != p.Served {
			t.Errorf("process %d: latency count %d != served %d", p.P, p.Latency.Count, p.Served)
		}
		if p.Steps <= 0 {
			t.Errorf("process %d took no steps", p.P)
		}
		if _, ok := p.PerOp["add"]; !ok {
			t.Errorf("process %d missing per-op histogram", p.P)
		}
	}
	if served != 6 {
		t.Fatalf("served = %d", served)
	}
	if completed < 6 {
		t.Fatalf("completed = %d", completed)
	}
	if rep.QASlots < 6 {
		t.Fatalf("qa slots = %d", rep.QASlots)
	}
	if len(rep.Leader.PerProcess) != 3 {
		t.Fatalf("leader vector: %+v", rep.Leader)
	}
	if !rep.Faults.Supported || len(rep.Faults.Matrix) != 3 {
		t.Fatalf("fault matrix: %+v", rep.Faults)
	}
	if rep.Elector != "atomic" {
		t.Fatalf("metrics elector = %q, want atomic", rep.Elector)
	}
	if len(rep.Faults.Trajectory) == 0 || len(rep.Leader.History) == 0 {
		t.Fatalf("sampler produced no trajectories")
	}
}

// Filling a replica's queue beyond capacity must backpressure with 503,
// not block or buffer unboundedly.
func TestBackpressure(t *testing.T) {
	s, err := New(Config{N: 2, Object: "counter", QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	// Stall replica 0 so its queue cannot drain.
	s.Runtime().SetProfile(0, func(int64) time.Duration { return 50 * time.Millisecond })

	full := 0
	for i := 0; i < 30; i++ {
		pd := NewPending("add")
		if err := s.backend.Submit(0, WireOp{Kind: "add", Delta: 1}, pd); err == shard.ErrQueueFull {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no submission was backpressured")
	}
	rep := s.report()
	if rep.Processes[0].Rejected == 0 {
		t.Fatalf("rejected counter not bumped: %+v", rep.Processes[0])
	}
}

func TestStopIsIdempotentAndFast(t *testing.T) {
	s, err := New(Config{N: 2, Object: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	// Put one process into a long gap; Stop must still return promptly
	// because gap sleeps are interruptible.
	s.Runtime().SetProfile(1, func(int64) time.Duration { return 10 * time.Second })
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("stop took %v", d)
	}
	if err := s.Stop(); err != nil {
		t.Fatal("second stop errored:", err)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	s, ts := startServer(t, Config{N: 3, Object: "counter"})
	seen := map[int]bool{}
	for i := 0; i < 9; i++ {
		code, out := postJSON(t, ts.URL+"/v1/invoke", map[string]any{
			"op": map[string]any{"kind": "add", "delta": 1},
		})
		if code != http.StatusOK {
			t.Fatalf("invoke: %d %v", code, out)
		}
		seen[int(out["replica"].(float64))] = true
	}
	if len(seen) != s.N() {
		t.Fatalf("round-robin hit %v of %d replicas", seen, s.N())
	}
}

func ExampleParseProfile() {
	prof, _ := ParseProfile("growing:2:1ms:2")
	var gaps []time.Duration
	for i := int64(0); i < 6; i++ {
		if d := prof(i); d > 0 {
			gaps = append(gaps, d)
		}
	}
	fmt.Println(gaps)
	// Output: [1ms 2ms 4ms]
}

// An unloaded service is quiet: once the tasks of a started three-replica
// counter backend have used up their linger windows every one of them is
// parked, and the stack takes no steps at all. The control is one task that
// spins instead of parking, which the same count must see.
func TestUnloadedBackendTakesNoSteps(t *testing.T) {
	const n = 3
	r := rt.New(n, nil)
	defer r.Stop()
	b, err := NewBackend(r, BackendConfig{Object: "counter", DropRaw: true}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	// Start-up steps and the linger windows end with every task parked; on
	// a loaded host that takes as long as it takes.
	for p, deadline := 0, time.Now().Add(10*time.Second); p < n; {
		switch {
		case r.ProcStats(p).Idle:
			p++
		case time.Now().After(deadline):
			t.Fatalf("process %d still not idle 10s after start: %+v", p, r.ProcStats(p))
		default:
			time.Sleep(time.Millisecond)
		}
	}
	stepsIn := func(window time.Duration) int64 {
		total := int64(0)
		for p := 0; p < n; p++ {
			total -= r.StepOf(p)
		}
		time.Sleep(window)
		for p := 0; p < n; p++ {
			total += r.StepOf(p)
		}
		return total
	}
	if got := stepsIn(200 * time.Millisecond); got != 0 {
		t.Fatalf("unloaded backend took %d steps in 200ms, want 0 (a task is spinning instead of parked)", got)
	}
	r.Spawn(0, "spinner", func(pp prim.Proc) {
		for {
			pp.Step()
		}
	})
	got := stepsIn(20 * time.Millisecond)
	t.Logf("control: one spinning task reads %d steps in 20ms", got)
	if got == 0 {
		t.Fatal("control: a spinning task took no steps — the count cannot see one")
	}
}
