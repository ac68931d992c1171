package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tbwf/internal/lincheck"
	"tbwf/internal/objtype"
)

// TestLiveDegradationIntegration is the PR's end-to-end check: an
// in-process service is driven by three concurrent HTTP clients while one
// replica's pacing profile degrades mid-run to growing gaps. It asserts
// the paper's service-level claims:
//
//   - safety survives the degradation: the complete history of every
//     operation that returned, timestamped client-side, linearizes
//     against the sequential counter spec (Wing–Gong check);
//   - timeliness-based wait-freedom: the clients pinned to the timely
//     replicas complete their full workload while the slow replica is
//     degraded;
//   - telemetry tells the story: the served counts, latency histograms,
//     step-gap estimates, injection log and monitor/leader trajectories
//     on /v1/metrics are consistent with what the clients did.
func TestLiveDegradationIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	_, ts := startServer(t, Config{
		N:               3,
		Object:          "counter",
		QueueDepth:      32,
		SampleEvery:     time.Millisecond,
		TrajectoryEvery: 10 * time.Millisecond,
	})

	const (
		timelyOpsPhaseA = 6  // per timely client, before the injection
		timelyOpsPhaseB = 12 // per timely client, while degraded
		slowOpsPhaseA   = 6
		slowOpsPhaseB   = 2
	)

	var mu sync.Mutex
	var history []lincheck.Op[objtype.CounterOp, int64]

	// invoke posts one op pinned to replica == client and appends the
	// completed operation to the shared history. It runs on client
	// goroutines, so it reports errors instead of failing the test itself.
	invoke := func(client int, op WireOp) error {
		arg := objtype.CounterOp{Delta: op.Delta}
		reqBody, err := json.Marshal(map[string]any{"replica": client, "op": op})
		if err != nil {
			return err
		}
		t0 := time.Now().UnixNano()
		resp, err := http.Post(ts.URL+"/v1/invoke", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			return fmt.Errorf("client %d: %w", client, err)
		}
		t1 := time.Now().UnixNano()
		defer resp.Body.Close()
		var body struct {
			OK   bool `json:"ok"`
			Resp struct {
				Prev *int64 `json:"prev"`
			} `json:"resp"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return fmt.Errorf("client %d: bad response: %w", client, err)
		}
		if resp.StatusCode != http.StatusOK || !body.OK || body.Resp.Prev == nil {
			return fmt.Errorf("client %d: HTTP %d ok=%v err=%q", client, resp.StatusCode, body.OK, body.Error)
		}
		mu.Lock()
		history = append(history, lincheck.Op[objtype.CounterOp, int64]{
			Proc:     client,
			Invoke:   t0,
			Response: t1,
			Arg:      arg,
			Resp:     *body.Resp.Prev,
		})
		mu.Unlock()
		return nil
	}

	runClient := func(client, ops int, errs chan<- error) {
		for i := 0; i < ops; i++ {
			// Distinct deltas make responses tell the linearization apart.
			delta := int64(client*1000 + i + 1)
			if err := invoke(client, WireOp{Kind: "add", Delta: delta}); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}

	phase := func(opsPerTimely, opsPerSlow int) {
		t.Helper()
		errs := make(chan error, 3)
		for c := 0; c < 2; c++ {
			go runClient(c, opsPerTimely, errs)
		}
		go runClient(2, opsPerSlow, errs)
		for i := 0; i < 3; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase A: everyone timely.
	phase(timelyOpsPhaseA, slowOpsPhaseA)

	// Inject growing gaps into replica 2 through the public fault endpoint.
	status, body := postJSON(t, ts.URL+"/v1/fault",
		map[string]any{"process": 2, "spec": "growing:32:2ms:1.2"})
	if status != http.StatusOK {
		t.Fatalf("fault injection failed: HTTP %d: %v", status, body)
	}

	// Phase B: replica 2 is degrading. The timely clients must still
	// complete their full workload (the t.Fatal path inside phase enforces
	// completion; the test deadline bounds the wall-clock).
	phaseBStart := time.Now()
	phase(timelyOpsPhaseB, slowOpsPhaseB)
	phaseBElapsed := time.Since(phaseBStart)

	// A replica with no work parks and takes no steps, so only real work
	// carries replica 2 to its burst boundaries, and a pause shows as a
	// process-level gap only if no sibling task stepped during it. Two
	// operations nearly always show one (0 extra ops in 69 runs of 70);
	// keep the replica working until its telemetry does.
	extraSlowOps := 0
	for deadline := time.Now().Add(10 * time.Second); fetchMetrics(t, ts.URL).Processes[2].MaxGapUS < 2000; extraSlowOps++ {
		if time.Now().After(deadline) {
			t.Fatalf("process 2 max gap still %.0fµs after %d extra ops under growing 2ms pauses",
				fetchMetrics(t, ts.URL).Processes[2].MaxGapUS, extraSlowOps)
		}
		if err := invoke(2, WireOp{Kind: "add", Delta: int64(2500 + extraSlowOps)}); err != nil {
			t.Fatal(err)
		}
	}

	// Restore replica 2 so shutdown is prompt, then read the final value.
	status, body = postJSON(t, ts.URL+"/v1/fault",
		map[string]any{"process": 2, "spec": "steady"})
	if status != http.StatusOK {
		t.Fatalf("fault restore failed: HTTP %d: %v", status, body)
	}
	if err := invoke(0, WireOp{Kind: "read"}); err != nil {
		t.Fatal(err)
	}

	// The read went last and alone, so its response must be the sum of
	// every delta — a direct check before the full linearizability search.
	var want int64
	for _, op := range history[:len(history)-1] {
		want += op.Arg.Delta
	}
	if got := history[len(history)-1].Resp; got != want {
		t.Fatalf("final read = %d, want %d", got, want)
	}

	totalOps := 2*(timelyOpsPhaseA+timelyOpsPhaseB) + slowOpsPhaseA + slowOpsPhaseB + extraSlowOps + 1
	if len(history) != totalOps {
		t.Fatalf("history has %d ops, want %d", len(history), totalOps)
	}
	if _, ok, err := lincheck.Check[int64](objtype.Counter{}, history, lincheck.Options[int64, int64]{}); err != nil {
		t.Fatalf("lincheck: %v", err)
	} else if !ok {
		t.Fatalf("history of %d ops does not linearize", len(history))
	}

	// Telemetry consistency.
	rep := fetchMetrics(t, ts.URL)
	if rep.Object != "counter" || rep.N != 3 || len(rep.Processes) != 3 {
		t.Fatalf("report header: %+v", rep)
	}
	var served int64
	for _, pm := range rep.Processes {
		served += pm.Served
		if pm.Latency.Count != pm.Served {
			t.Errorf("process %d: histogram count %d != served %d", pm.P, pm.Latency.Count, pm.Served)
		}
		var perOp int64
		for _, s := range pm.PerOp {
			perOp += s.Count
		}
		if perOp != pm.Served {
			t.Errorf("process %d: per-op sum %d != served %d", pm.P, perOp, pm.Served)
		}
		if pm.Client.Completed < pm.Served {
			t.Errorf("process %d: client completed %d < served %d", pm.P, pm.Client.Completed, pm.Served)
		}
		if pm.Client.Aborts < 0 || pm.QA.Proposals < 0 {
			t.Errorf("process %d: negative counters: %+v", pm.P, pm)
		}
	}
	if served != int64(totalOps) {
		t.Errorf("served %d != completed ops %d", served, totalOps)
	}
	if rep.QASlots < int64(totalOps) {
		t.Errorf("qa slots %d < ops %d", rep.QASlots, totalOps)
	}
	// The injected replica observed its growing gaps: its max step gap must
	// be at least the first injected pause.
	if rep.Processes[2].MaxGapUS < 2000 {
		t.Errorf("process 2 max gap %.0fµs, want ≥ 2000µs (injected 2ms pauses)", rep.Processes[2].MaxGapUS)
	}
	if len(rep.Injections) != 2 {
		t.Fatalf("injections = %+v, want the degrade and the restore", rep.Injections)
	}
	if rep.Injections[0].Process != 2 || !strings.HasPrefix(rep.Injections[0].Spec, "growing:") {
		t.Errorf("first injection = %+v", rep.Injections[0])
	}
	if len(rep.Leader.PerProcess) != 3 {
		t.Errorf("leader vector = %v", rep.Leader.PerProcess)
	}
	if len(rep.Leader.History) == 0 || len(rep.Faults.Trajectory) == 0 {
		t.Errorf("empty trajectories: leader=%d fault=%d",
			len(rep.Leader.History), len(rep.Faults.Trajectory))
	}
	if len(rep.Faults.Matrix) != 3 || len(rep.Faults.Matrix[0]) != 3 {
		t.Errorf("fault matrix shape: %v", rep.Faults.Matrix)
	}

	// The degraded phase must not have stalled the timely clients: sanity
	// log for the record (the hard bound is the test deadline).
	t.Logf("phase B: %d timely ops in %v with replica 2 degraded (+%d slow ops until its pause showed)",
		2*timelyOpsPhaseB, phaseBElapsed, extraSlowOps)
	if doc, err := json.Marshal(rep); err != nil || len(doc) == 0 {
		t.Fatalf("metrics report does not marshal: %v", err)
	}
}
