package rt_test

import (
	"sync"
	"testing"
	"time"

	"tbwf/internal/lincheck"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/rt"
)

// Successful operations on the real-time abortable register must be
// linearizable — the goroutine analogue of
// internal/register/lincheck_test.go's simulation check. Three processes
// hammer one register with real concurrency (run it under -race);
// operations that abort take no effect and are excluded, and the
// Wing–Gong checker judges the rest against the sequential register spec
// using wall-clock invocation/response timestamps.
func TestAbortableSuccessfulOpsLinearize(t *testing.T) {
	const n = 3
	const attempts = 14
	r := rt.New(n, nil)
	defer r.Stop()
	reg := prim.NewAbortable(r, "", int64(0))

	var mu sync.Mutex
	var history []lincheck.Op[objtype.RegOp, objtype.RegResp]
	record := func(p int, invoke, response int64, arg objtype.RegOp, resp objtype.RegResp) {
		mu.Lock()
		history = append(history, lincheck.Op[objtype.RegOp, objtype.RegResp]{
			Proc: p, Invoke: invoke, Response: response, Arg: arg, Resp: resp,
		})
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		r.Spawn(p, "client", func(pp prim.Proc) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				if i%2 == 0 {
					v := int64(100*p + i + 1) // unique values per writer
					invoke := time.Now().UnixNano()
					ok := reg.Write(v)
					response := time.Now().UnixNano()
					if ok {
						record(p, invoke, response,
							objtype.RegOp{Kind: objtype.RegWrite, New: v},
							objtype.RegResp{Prev: -1}) // prev unobserved
					}
				} else {
					invoke := time.Now().UnixNano()
					v, ok := reg.Read()
					response := time.Now().UnixNano()
					if ok {
						record(p, invoke, response,
							objtype.RegOp{Kind: objtype.RegRead},
							objtype.RegResp{Prev: v})
					}
				}
				// Let the processes drift out of phase so some operations
				// run solo (the adversary aborts every overlapped pair).
				time.Sleep(time.Duration(p+1) * 200 * time.Microsecond)
				pp.Step()
			}
		})
	}
	wg.Wait()

	if len(history) == 0 {
		t.Skip("every operation overlapped and aborted; nothing to check")
	}
	// The register interface does not return the previous value on writes,
	// so write responses compare loosely: any Prev matches the sentinel.
	opts := lincheck.Options[int64, objtype.RegResp]{
		Equal: func(a, b objtype.RegResp) bool {
			if a.Prev == -1 || b.Prev == -1 {
				return true
			}
			return a == b
		},
	}
	_, ok, err := lincheck.Check[int64](objtype.Register{}, history, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("successful-op history not linearizable:\n%+v", history)
	}
	t.Logf("%d of %d operations succeeded and linearize", len(history), n*attempts)
}
