package mpsc

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {64, 64}, {100, 128},
	} {
		if got := New[int](tc.ask).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestPushPopFIFO(t *testing.T) {
	q := New[int](8)
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
	for i := 0; i < 8; i++ {
		if !q.Push(i) {
			t.Fatalf("Push(%d) on non-full queue failed", i)
		}
	}
	if q.Push(99) {
		t.Fatal("Push on full queue succeeded")
	}
	if got := q.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	for i := 0; i < 8; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on drained queue reported ok")
	}
}

// TestWrapAround exercises many laps around a tiny ring so the sequence
// arithmetic is tested far past the first lap.
func TestWrapAround(t *testing.T) {
	q := New[int](4)
	for i := 0; i < 10_000; i++ {
		if !q.Push(i) {
			t.Fatalf("Push(%d) failed on empty ring", i)
		}
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
}

func TestPopBatch(t *testing.T) {
	q := New[int](16)
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	buf := make([]int, 4)
	if n := q.PopBatch(buf); n != 4 {
		t.Fatalf("PopBatch = %d, want 4", n)
	}
	for i, v := range buf {
		if v != i {
			t.Fatalf("buf[%d] = %d, want %d", i, v, i)
		}
	}
	if n := q.PopBatch(buf[:2]); n != 2 || buf[0] != 4 || buf[1] != 5 {
		t.Fatalf("second PopBatch = %d (%v), want 2 (4 5)", n, buf[:2])
	}
	if n := q.PopBatch(buf); n != 4 {
		t.Fatalf("third PopBatch = %d, want 4", n)
	}
	if n := q.PopBatch(buf); n != 0 {
		t.Fatalf("PopBatch on empty = %d, want 0", n)
	}
}

// TestPoppedValuesNotRetained checks that Pop and PopBatch zero the cell so
// the ring does not pin popped pointers against the GC.
func TestPoppedValuesNotRetained(t *testing.T) {
	q := New[*int](4)
	x := new(int)
	q.Push(x)
	q.Pop()
	for i := range q.buf {
		if q.buf[i].val != nil {
			t.Fatal("Pop left a pointer behind in the ring")
		}
	}
	q.Push(x)
	q.PopBatch(make([]*int, 1))
	for i := range q.buf {
		if q.buf[i].val != nil {
			t.Fatal("PopBatch left a pointer behind in the ring")
		}
	}
}

// TestConcurrentFIFO drives many producers against one consumer and checks
// (a) nothing is lost or duplicated, (b) each producer's items arrive in
// its own program order (per-producer FIFO is what the serve layer's fuzz
// oracle observes). Run with -race for the memory-model teeth.
func TestConcurrentFIFO(t *testing.T) {
	const (
		producers = 8
		perProd   = 2000
	)
	type item struct{ prod, seq int }
	q := New[item](64)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for s := 0; s < perProd; s++ {
				for !q.Push(item{p, s}) {
					runtime.Gosched() // full: let the consumer drain
				}
			}
		}(p)
	}

	got := make([][]int, producers)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]item, 32)
		total := 0
		for total < producers*perProd {
			n := q.PopBatch(buf)
			if n == 0 {
				v, ok := q.Pop()
				if !ok {
					runtime.Gosched()
					continue
				}
				buf[0], n = v, 1
			}
			for _, it := range buf[:n] {
				got[it.prod] = append(got[it.prod], it.seq)
			}
			total += n
		}
	}()
	wg.Wait()
	<-done

	for p := 0; p < producers; p++ {
		if len(got[p]) != perProd {
			t.Fatalf("producer %d: received %d items, want %d", p, len(got[p]), perProd)
		}
		for s, v := range got[p] {
			if v != s {
				t.Fatalf("producer %d: item %d out of order (got seq %d)", p, s, v)
			}
		}
	}
}

// TestConcurrentBounded checks the full-queue backpressure path under
// producer contention: Len never exceeds Cap and rejected pushes are
// eventually admitted.
func TestConcurrentBounded(t *testing.T) {
	q := New[int](4)
	var wg sync.WaitGroup
	const perProd = 500
	var rejects, accepts int64
	var mu sync.Mutex
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			localRej, localAcc := int64(0), int64(0)
			for s := 0; s < perProd; s++ {
				for !q.Push(s) {
					localRej++
					runtime.Gosched()
				}
				localAcc++
				if l := q.Len(); l > q.Cap() {
					t.Errorf("Len %d exceeds Cap %d", l, q.Cap())
					return
				}
			}
			mu.Lock()
			rejects += localRej
			accepts += localAcc
			mu.Unlock()
		}()
	}
	drained := 0
	for drained < 4*perProd {
		if _, ok := q.Pop(); ok {
			drained++
		} else {
			runtime.Gosched()
		}
	}
	wg.Wait()
	if accepts != 4*perProd {
		t.Fatalf("accepted %d pushes, want %d (%d rejects)", accepts, 4*perProd, rejects)
	}
}

// lane is the entry the shard lanes carry: a small op and the pointer to
// its in-flight slot, 16 bytes.
type lane struct {
	op int64
	pd *int64
}

// laneDepth and laneBatch match the shard lanes' default capacity and the
// worker's PopBatch buffer.
const (
	laneDepth = 256
	laneBatch = 32
)

// Push and PopBatch copy the item in and out of the ring's own cells: a
// full batch pushed and drained must not allocate at all.
func TestPushPopBatchZeroAlloc(t *testing.T) {
	q := New[lane](laneDepth)
	batch := make([]lane, laneBatch)
	var slot, got int64
	avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < laneBatch; i++ {
			if !q.Push(lane{op: 1, pd: &slot}) {
				t.Fatal("Push refused on a drained queue")
			}
		}
		for _, it := range batch[:q.PopBatch(batch)] {
			got += it.op
		}
	})
	if avg != 0 {
		t.Fatalf("a batch of %d Push + one PopBatch allocates %.0f objects, want 0", laneBatch, avg)
	}
	if want := int64(1001 * laneBatch); got != want { // AllocsPerRun adds one warm-up run
		t.Fatalf("drained %d items, want %d", got, want)
	}
}

// BenchmarkPushPop moves b.N lane entries from p producers to one consumer
// draining in batches, the shard worker's shape; ns/op is per item. The
// spin loops yield so the benchmark still finishes on one P.
func BenchmarkPushPop(b *testing.B) {
	for _, producers := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("p=%d", producers), func(b *testing.B) {
			b.ReportAllocs()
			q := New[lane](laneDepth)
			batch := make([]lane, laneBatch)
			per := max(b.N/producers, 1)
			total := int64(per * producers)
			var slot int64
			var wg sync.WaitGroup
			start := make(chan struct{})
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < per; i++ {
						for !q.Push(lane{op: 1, pd: &slot}) {
							runtime.Gosched()
						}
					}
				}()
			}
			var got int64
			b.ResetTimer()
			close(start)
			for got < total {
				n := q.PopBatch(batch)
				if n == 0 {
					runtime.Gosched()
					continue
				}
				for i := range batch[:n] {
					got += batch[i].op
					batch[i] = lane{}
				}
			}
			b.StopTimer()
			wg.Wait()
			if got != total {
				b.Fatalf("drained %d of %d items", got, total)
			}
		})
	}
}
