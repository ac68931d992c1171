package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tbwf/internal/rt"
)

// cancelStorm drives one operation route through the three ways a request
// leaves dispatch. With replica 1 stalled it queues `storm` adds there and
// cancels every one of them; then it lets the replica run and sends
// `storm` more, one at a time; then it stalls the replica again, queues a
// few more and stops the server under them. It returns every violation it
// saw, so that the negative control can demand one; only a load that
// could not be set up fails the test from in here.
//
// The adds all go to replica 1, whose queue is FIFO, so the i-th add of
// the second batch must read prev = 1 + storm + i: the warm-up op and
// every cancelled op took effect exactly once, in front of it. A Pending
// recycled while its worker still held it would instead hand the new
// request a cancelled op's result.
func cancelStorm(t *testing.T, s *Server, b Backend, path, key string) (violations []string) {
	t.Helper()
	const storm, atStop = 200, 8
	body := fmt.Sprintf(`{"key":%q,"replica":1,"op":{"kind":"add","delta":1}}`, key)
	type reply struct {
		OK      bool `json:"ok"`
		Replica int  `json:"replica"`
		Resp    struct {
			Prev int64 `json:"prev"`
		} `json:"resp"`
	}
	call := func(ctx context.Context) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx))
		return w
	}
	// queue starts n calls and returns once the backend has accepted them.
	queue := func(ctx context.Context, n int) (recs []*httptest.ResponseRecorder, wg *sync.WaitGroup) {
		recs, wg = make([]*httptest.ResponseRecorder, n), new(sync.WaitGroup)
		want := b.Stats(0).Accepted + int64(n)
		for i := range recs {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs[i] = call(ctx)
			}()
		}
		for deadline := time.Now().Add(10 * time.Second); b.Stats(0).Accepted < want; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: only %d of %d ops accepted", path, b.Stats(0).Accepted-want+int64(n), n)
			}
			time.Sleep(time.Millisecond)
		}
		return recs, wg
	}
	stall := func() { s.Runtime().SetProfile(1, rt.Steady(time.Hour)) }

	if w := call(context.Background()); w.Code != http.StatusOK {
		t.Fatalf("%s: warm-up: %d %s", path, w.Code, w.Body)
	}

	stall()
	ctx, cancel := context.WithCancel(context.Background())
	_, abandoned := queue(ctx, storm)
	cancel()
	abandoned.Wait()
	s.Runtime().SetProfile(1, nil)

	for i := 0; i < storm; i++ {
		w := call(context.Background())
		var r reply
		err := json.Unmarshal(w.Body.Bytes(), &r)
		if err != nil || w.Code != http.StatusOK || !r.OK || r.Replica != 1 || r.Resp.Prev != int64(1+storm+i) {
			violations = append(violations, fmt.Sprintf("op %d after the storm, want prev %d: %d %s", i, 1+storm+i, w.Code, w.Body))
		}
	}

	stall()
	recs, stopped := queue(context.Background(), atStop)
	if err := s.Stop(); err != nil {
		t.Fatalf("%s: stop: %v", path, err)
	}
	stopped.Wait()
	for i, w := range recs {
		if w.Code != http.StatusServiceUnavailable {
			violations = append(violations, fmt.Sprintf("request %d in flight at Stop, want 503: %d %s", i, w.Code, w.Body))
		}
	}
	return violations
}

// Cancellation and shutdown go through the one dispatch on both route
// pairs: cancelled ops still take effect exactly once, no later request
// sees a stale result, requests in flight at Stop answer 503, and no
// goroutine outlives the server. Run under -race (CI does).
func TestCancelAndShutdownThroughOneDispatch(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		path := map[bool]string{false: "/v1/invoke", true: "/v1/kv/invoke"}[keyed]
		t.Run(path, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s, err := New(Config{N: 2, Object: "counter", Shards: 1, QueueDepth: 256})
			if err != nil {
				t.Fatal(err)
			}
			b := s.backend
			if keyed {
				b = s.kv
			}
			for _, v := range cancelStorm(t, s, b, path, "k") {
				t.Error(v)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Stop, %d before New", runtime.NumGoroutine(), base)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// Negative control for the ownership rule: an abandoner that releases its
// Pending hands the worker's late result to whoever draws the slot next.
// The slots it corrupts sit in the package's pool, so the pool is replaced
// afterwards. Under -race the detector sees the worker and the new owner
// touch the recycled slot and fails the test first — rightly, but not the
// way this test means to fail.
func TestCancelStormCatchesReleaseOnAbandon(t *testing.T) {
	if raceEnabled {
		t.Skip("releasing a Pending its worker still holds is a data race; -race reports that instead")
	}
	t.Cleanup(func() { pendingPool = sync.Pool{} })
	s, err := New(Config{N: 2, Object: "counter", QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	s.ablateAbandonRelease = true
	if len(cancelStorm(t, s, s.backend, "/v1/invoke", "")) == 0 {
		t.Fatal("abandoners released their Pendings and no later request saw a stale result")
	}
}
