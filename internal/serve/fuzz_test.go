package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Native fuzz targets for the service's outside inputs: the pacing spec of
// /v1/fault and -pace, the -admission spec, and the bodies of the operation
// routes. Each seeds its corpus from the table tests beside the code, so
// plain `go test` runs the seeds; one target searches with
//
//	go test -run '^$' -fuzz FuzzDecodeOp -fuzztime 20s ./internal/serve/

// FuzzParseProfile feeds a string to ParseProfile, as a /v1/fault spec, and
// to ParsePacing, as a whole -pace value and as one process's entry in one.
// Neither may panic, an accepted profile must be callable, and a spec is
// accepted by /v1/fault exactly when it is accepted as a -pace entry.
func FuzzParseProfile(f *testing.F) {
	for _, spec := range append(append([]string{}, goodProfiles...), badProfiles...) {
		f.Add(spec)
	}
	// TestParsePacing's values.
	for _, pace := range []string{"*:steady:10us;2:growing:400:2ms:1.5", "9:steady", "junk", "  "} {
		f.Add(pace)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		prof, err := ParseProfile(spec)
		if err == nil && prof != nil {
			for step := int64(1); step <= 4; step++ {
				prof(step)
			}
		}
		if profs, err := ParsePacing(spec, 4); err == nil && len(profs) != 4 {
			t.Fatalf("ParsePacing(%q, 4) returned %d profiles", spec, len(profs))
		}
		if strings.Contains(spec, ";") {
			return
		}
		if _, perr := ParsePacing("0:"+spec, 4); (err == nil) != (perr == nil) {
			t.Fatalf("ParseProfile(%q): %v, but as a pacing entry: %v", spec, err, perr)
		}
	})
}

// FuzzParseAdmission feeds a string to ParseAdmission: it must not panic,
// and an accepted spec has no negative bound.
func FuzzParseAdmission(f *testing.F) {
	for _, spec := range append([]string{"", "rate=100,burst=5,inflight=32", "rate=0.5"}, badAdmissions...) {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		a, err := ParseAdmission(spec)
		if err == nil && (a.Burst < 0 || a.MaxInFlight < 0) {
			t.Fatalf("ParseAdmission(%q) = %+v", spec, a)
		}
	})
}

// FuzzDecodeOp posts arbitrary bodies to /v1/invoke and /v1/kv/invoke of
// one in-process server, a counter with one shard, straight through
// ServeHTTP, so a handler's panic fails the target. Every reply must be a
// JSON object whose ok is true exactly when the status is 2xx.
func FuzzDecodeOp(f *testing.F) {
	for _, body := range []string{
		// From TestInvokeReadStatsCounter, TestInvokeValidation,
		// TestKVUnshardedGuard, TestKVSingleShardParity and cancelStorm.
		`{"replica":0,"op":{"kind":"add","delta":1}}`,
		`{"op":{"kind":"launch"}}`,
		`{"replica":7,"op":{"kind":"enq","value":1}}`,
		`{"key":"k","op":{"kind":"add","delta":1}}`,
		`{"key":"a","op":{"kind":"put","value":5}}`,
		`{"key":"a","op":{"kind":"cas","old":3,"new":9}}`,
		`{"key":"b","op":{"kind":"get"}}`,
		`{"key":"k","replica":1,"op":{"kind":"add","delta":1}}`,
		// Malformed envelopes.
		``, `{`, `null`, `[]`, `{"replica":-1,"op":{}}`, `{"replica":"0"}`,
		`{"op":{"kind":"add","delta":1e99}}`,
	} {
		f.Add([]byte(body))
	}
	s, err := New(Config{N: 2, Object: "counter", Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Stop() })
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/invoke", "/v1/kv/invoke"} {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			var reply struct {
				OK *bool `json:"ok"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil || reply.OK == nil {
				t.Fatalf("%s %q: %d with a body that is no JSON object carrying ok (%v): %q", path, body, w.Code, err, w.Body)
			}
			if ok2xx := w.Code/100 == 2; *reply.OK != ok2xx {
				t.Fatalf("%s %q: status %d but ok %v", path, body, w.Code, *reply.OK)
			}
		}
	})
}
