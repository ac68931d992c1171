// Package rtbench is the rt hot path's benchmark registry: the gate
// pacing fast path, the bounded MPSC queue behind the serve and shard
// layers, the end-to-end zero-alloc invoke path, the event-wait hand-off,
// and what an unloaded service costs. The leaves run both
// under `go test -bench` (through the wrappers in the repo root's
// bench_test.go) and under cmd/tbwf-bench -rt, which records them in
// BENCH_rt.json and gates perf regressions in CI.
//
// Every family carries its own in-run baseline — the pre-campaign
// implementation, kept here verbatim: the mutex ring the serve layer used
// before internal/mpsc, and the timer-per-gap parking the gate used
// before the pooled interruptible park. Regression gating compares
// current/baseline ratios and allocation counts, not absolute ns/op, so
// the committed snapshot stays meaningful across machines.
package rtbench

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tbwf/internal/deploy"
	"tbwf/internal/mpsc"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/rt"
	"tbwf/internal/serve"
)

// Bench is one registered benchmark leaf.
type Bench struct {
	Name string
	F    func(b *testing.B)
}

// All returns every registered leaf, families in display order.
func All() []Bench {
	return []Bench{
		{"GatePace/zero", benchGateZero},
		{"GatePace/parked", benchGateParked},
		{"GatePace/timer-baseline", benchGateTimerBaseline},
		{"ServeQueue/ring/p=1", benchQueueRing(1)},
		{"ServeQueue/ring/p=4", benchQueueRing(4)},
		{"ServeQueue/ring/p=8", benchQueueRing(8)},
		{"ServeQueue/ring/p=16", benchQueueRing(16)},
		{"ServeQueue/mpsc/p=1", benchQueueMPSC(1)},
		{"ServeQueue/mpsc/p=4", benchQueueMPSC(4)},
		{"ServeQueue/mpsc/p=8", benchQueueMPSC(8)},
		{"ServeQueue/mpsc/p=16", benchQueueMPSC(16)},
		{"InvokePath/rt", benchInvokePath},
		{"AwaitHandoff/rt", benchAwaitHandoff},
		{"Idle/rt", benchIdle},
	}
}

// Extra metric names of the Idle/rt leaf (testing.BenchmarkResult.Extra).
const (
	IdleStepsPerSec = "idle-steps/s"
	IdleCPUPercent  = "idle-cpu-%"
)

// RunFamily runs every leaf whose name starts with prefix+"/" as a
// sub-benchmark of b. The root bench_test.go wrappers call it so the
// families appear under `go test -bench`.
func RunFamily(b *testing.B, prefix string) {
	found := false
	for _, l := range All() {
		if !strings.HasPrefix(l.Name, prefix+"/") {
			continue
		}
		found = true
		b.Run(strings.TrimPrefix(l.Name, prefix+"/"), l.F)
	}
	if !found {
		b.Fatalf("rtbench: no leaves under family %q", prefix)
	}
}

// parkGap is the gap used by the parked-gate legs. It is long enough that
// the task genuinely parks on a timer (exercising the pool and the wake
// plumbing) and identical between the pooled and the baseline leg, so
// their ns/op difference is pure bookkeeping overhead and their allocs/op
// difference is the point: the baseline pays a fresh timer per gap.
const parkGap = 5 * time.Microsecond

// benchGateZero measures the gate's zero-delay fast path: the whole
// per-step cost of a nil-profile process — crash/stop loads, the step-gap
// telemetry fold, the step bump, and a Gosched. This is the pace every
// timely process pays on every protocol step, so it must stay
// allocation-free and mutex-free.
func benchGateZero(b *testing.B) {
	r := rt.New(1, nil)
	runSpawned(b, r, func(pp prim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pp.Step()
		}
	})
}

// benchGateParked measures a paced step through the pooled interruptible
// park. ns/op is dominated by the gap itself; the leaf exists for its
// allocs/op (the pool must amortize the timer away) and as the numerator
// against the timer baseline below.
func benchGateParked(b *testing.B) {
	r := rt.New(1, rt.Steady(parkGap))
	runSpawned(b, r, func(pp prim.Proc) {
		pp.Step() // warm the timer pool before the clock starts
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pp.Step()
		}
	})
}

// benchGateTimerBaseline is the pre-campaign gate sleep, verbatim: a
// fresh time.NewTimer per gap, selected against the stop channel. Its
// allocs/op is what the pooled park deletes.
func benchGateTimerBaseline(b *testing.B) {
	stopCh := make(chan struct{})
	defer close(stopCh)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := time.NewTimer(parkGap)
		select {
		case <-t.C:
		case <-stopCh:
			t.Stop()
		}
	}
}

// runSpawned runs body as a task of r's process 0 and waits for it, so a
// benchmark loop can call pp.Step like real protocol code does.
func runSpawned(b *testing.B, r *rt.Runtime, body func(pp prim.Proc)) {
	done := make(chan struct{})
	r.Spawn(0, "bench", func(pp prim.Proc) {
		defer close(done)
		body(pp)
	})
	<-done
	b.StopTimer()
	if err := r.Stop(); err != nil {
		b.Fatalf("Stop: %v", err)
	}
}

// item mirrors the serve layer's queued entry: a small op plus the
// pointer to its in-flight slot.
type item struct {
	op int64
	pd *int64
}

// mutexRing is the queue the serve layer used before internal/mpsc — a
// mutex-guarded bounded FIFO popped one item per lock acquisition — kept
// verbatim as the in-run baseline the ServeQueue speedup is measured
// against.
type mutexRing struct {
	mu    sync.Mutex
	buf   []item
	head  int
	count int
}

func newMutexRing(capacity int) *mutexRing { return &mutexRing{buf: make([]item, capacity)} }

func (r *mutexRing) push(it item) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == len(r.buf) {
		return false
	}
	r.buf[(r.head+r.count)%len(r.buf)] = it
	r.count++
	return true
}

func (r *mutexRing) pop() (item, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return item{}, false
	}
	it := r.buf[r.head]
	r.buf[r.head] = item{}
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return it, true
}

// queueDepth matches the serve/shard worker queues' default capacity.
const queueDepth = 256

// drainBatch matches the serve worker's PopBatch buffer size.
const drainBatch = 32

// benchQueueRing measures producers hammering the baseline mutex ring
// while one consumer drains it item-at-a-time — exactly the serve
// layer's pre-campaign Submit/worker shape. ns/op is per transferred
// item.
func benchQueueRing(producers int) func(b *testing.B) {
	return func(b *testing.B) {
		q := newMutexRing(queueDepth)
		runProducersConsumer(b, producers,
			func(it item) bool { return q.push(it) },
			func(got *int64) bool {
				it, ok := q.pop()
				if !ok {
					return false
				}
				*got += it.op
				return true
			})
	}
}

// benchQueueMPSC measures the same shape on internal/mpsc with the
// batched drain the serve and shard workers use.
func benchQueueMPSC(producers int) func(b *testing.B) {
	return func(b *testing.B) {
		q := mpsc.New[item](queueDepth)
		batch := make([]item, drainBatch)
		runProducersConsumer(b, producers,
			func(it item) bool { return q.Push(it) },
			func(got *int64) bool {
				n := q.PopBatch(batch)
				if n == 0 {
					return false
				}
				for i := 0; i < n; i++ {
					*got += batch[i].op
					batch[i] = item{}
				}
				return true
			})
	}
}

// runProducersConsumer transfers b.N items from `producers` goroutines to
// one consumer through push/drain. drain folds whatever it popped into
// its accumulator and reports whether it made progress. Spin loops yield:
// the benchmark must degrade gracefully on GOMAXPROCS=1, where a
// non-yielding spin starves the single P.
func runProducersConsumer(b *testing.B, producers int, push func(item) bool, drain func(*int64) bool) {
	slot := int64(0)
	per := b.N / producers
	total := per * producers
	if total == 0 {
		total, per = producers, 1
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			for i := 0; i < per; i++ {
				for !push(item{op: 1, pd: &slot}) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	var got int64
	b.ResetTimer()
	close(start)
	for got < int64(total) {
		if !drain(&got) {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	wg.Wait()
	if got != int64(total) {
		b.Fatalf("drained %d of %d items", got, total)
	}
}

// benchInvokePath measures the end-to-end direct Stack invocation on the
// rt substrate: Ω∆ leadership, the QA ballot, the typed registers, and
// the recycling slot store, all per op. A peer client invokes throughout
// so slot recycling keeps up (an idle handle pins the reclaim floor), so
// ns/op includes genuine two-client contention. The headline number is
// allocs/op: amortized zero once the pools and the slot window are warm.
func benchInvokePath(b *testing.B) {
	r := rt.New(2, nil)
	st, err := deploy.Build[int64, objtype.CounterOp, int64](r, objtype.Counter{}, deploy.BuildConfig{})
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	var stop atomic.Bool
	r.Spawn(1, "peer", func(pp prim.Proc) {
		for !stop.Load() {
			st.Clients[1].Invoke(pp, objtype.CounterOp{Delta: 1})
		}
	})
	runSpawned(b, r, func(pp prim.Proc) {
		c := st.Clients[0]
		for i := 0; i < 400; i++ { // warm pools, settle the elector
			c.Invoke(pp, objtype.CounterOp{Delta: 1})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Invoke(pp, objtype.CounterOp{Delta: 1})
		}
		b.StopTimer()
		stop.Store(true)
	})
	if want := int64(400 + b.N); st.Clients[0].Completed() != want {
		b.Fatalf("completed %d ops, want %d", st.Clients[0].Completed(), want)
	}
}

// benchAwaitHandoff measures the event wait that replaced the skip loops:
// two tasks of one process raise a flag for each other in turn, each
// waiting in Await for the other's Set. One op is a there-and-back, so two
// Set → Step trips — back to back they land inside prim.LingerWindow, the
// loaded case, where the waiter is still stepping; the parked case is
// rt's TestAwaitParksWithoutStepsAndWakesOnSet. It must not allocate,
// since every leader change and every queued request rides on it.
func benchAwaitHandoff(b *testing.B) {
	r := rt.New(1, nil)
	ping, pong := prim.NewVar(false), prim.NewVar(false)
	r.Spawn(0, "pong", func(pp prim.Proc) {
		for {
			ping.Await(pp, prim.IsTrue)
			ping.Set(false)
			pong.Set(true)
		}
	})
	runSpawned(b, r, func(pp prim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Set(true)
			pong.Await(pp, prim.IsTrue)
			pong.Set(false)
		}
	})
}

// idleWindow is how long one op of the Idle/rt leaf watches an unloaded
// service.
const idleWindow = 200 * time.Millisecond

// benchIdle measures what a service with no load costs: a counter stack
// on three replicas with its workers started and nothing submitted. Once
// the tasks' linger windows have run out every one of them is parked, so the
// stack takes no steps and the process burns no CPU beyond the Go
// runtime's own background work; ns/op is just the window. The figures
// that matter are the two extra metrics, which the perf gate holds at 0
// steps/s and at most 2 % of one core.
func benchIdle(b *testing.B) {
	const n = 3
	r := rt.New(n, nil)
	be, err := serve.NewBackend(r, serve.BackendConfig{Object: "counter", DropRaw: true}, serve.Hooks{})
	if err != nil {
		b.Fatalf("NewBackend: %v", err)
	}
	be.Start()
	// Start-up steps and the linger windows end with every task parked; on
	// a loaded host that takes as long as it takes.
	for p, deadline := 0, time.Now().Add(10*time.Second); p < n; {
		switch {
		case r.ProcStats(p).Idle:
			p++
		case time.Now().After(deadline):
			b.Fatalf("process %d still not idle 10s after start: %+v", p, r.ProcStats(p))
		default:
			time.Sleep(time.Millisecond)
		}
	}
	steps := func() (total int64) {
		for p := 0; p < n; p++ {
			total += r.StepOf(p)
		}
		return total
	}
	steps0, cpu0, t0 := steps(), processCPU(), time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		time.Sleep(idleWindow)
	}
	b.StopTimer()
	wall := time.Since(t0)
	b.ReportMetric(float64(steps()-steps0)/wall.Seconds(), IdleStepsPerSec)
	b.ReportMetric(100*float64(processCPU()-cpu0)/float64(wall), IdleCPUPercent)
	if err := r.Stop(); err != nil {
		b.Fatalf("Stop: %v", err)
	}
}

// processCPU returns the user and system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
