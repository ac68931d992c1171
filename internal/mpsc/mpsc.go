// Package mpsc provides the repo's single bounded request-queue
// implementation: a lock-free multi-producer single-consumer ring used by
// every live-path queue (the serve layer's per-replica request queues and
// the shard layer's per-(shard,replica) lanes).
//
// The design is a CAS ring in the style of Vyukov's bounded queue: each
// cell carries a sequence number; producers claim cells by CAS on a shared
// ticket counter and publish by advancing the cell's sequence, the single
// consumer drains cells in ticket order without any CAS. Properties the
// call sites rely on:
//
//   - Pop order is exactly the linearized Push order (ticket order), so
//     the serve fuzzer's FIFO oracle holds on both substrates.
//   - Push never blocks and never allocates: a full ring reports false
//     immediately (the service's backpressure signal), and a simulation
//     task can call Push/Pop without ever blocking outside the kernel's
//     scheduling (the cardinal sim rule).
//   - PopBatch lets one consumer wake drain many queued items, so a worker
//     turn amortizes its queue check over a whole batch (mirroring the
//     shard layer's one-QA-round-per-batch amortization).
//   - Await is the consumer's "while the queue is empty do skip": spinning
//     steps on the simulation kernel, a park woken by Push on the
//     real-time runtime.
//
// The queue is sharded across the system one level up: every (replica) and
// every (shard, replica) pair owns an independent ring, so producers for
// different lanes never touch the same cache lines.
package mpsc

import (
	"sync/atomic"
	"time"

	"tbwf/internal/prim"
)

// pad keeps the hot cursors on their own cache lines so producers hammering
// tail do not false-share with the consumer advancing head.
type pad [56]byte

type cell[T any] struct {
	seq atomic.Int64
	val T
}

// Queue is a bounded multi-producer single-consumer FIFO. Any goroutine may
// Push; only one goroutine at a time may Pop/PopBatch. The zero value is
// not usable; create with New.
type Queue[T any] struct {
	mask int64
	buf  []cell[T]
	_    pad
	tail atomic.Int64 // next enqueue ticket (shared, CAS)
	_    pad
	head atomic.Int64 // next dequeue ticket (consumer-only writes)
	_    pad
	// sleeping is the consumer's "I am about to park" flag; wake is its
	// wake channel, written once by the consumer before sleeping is first
	// raised and read by producers only after they see it raised.
	sleeping atomic.Bool
	wake     chan<- struct{}
}

// New creates a queue holding at least capacity items (rounded up to a
// power of two, minimum 2).
func New[T any](capacity int) *Queue[T] {
	c := int64(2)
	for c < int64(capacity) {
		c <<= 1
	}
	q := &Queue[T]{mask: c - 1, buf: make([]cell[T], c)}
	for i := range q.buf {
		q.buf[i].seq.Store(int64(i))
	}
	return q
}

// Cap returns the queue's capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Push enqueues v, or reports false if the queue is full. Lock-free:
// a producer that loses the CAS race retries against the fresh ticket; it
// never spins on another producer's unfinished publish.
func (q *Queue[T]) Push(v T) bool {
	pos := q.tail.Load()
	for {
		c := &q.buf[pos&q.mask]
		switch seq := c.seq.Load(); {
		case seq == pos:
			if q.tail.CompareAndSwap(pos, pos+1) {
				c.val = v
				c.seq.Store(pos + 1) // publish
				// Publish, then test sleeping; Await raises sleeping, then
				// tests for a published cell. One side always sees the other.
				if q.sleeping.Load() && q.sleeping.CompareAndSwap(true, false) {
					select {
					case q.wake <- struct{}{}:
					default: // a hint is already pending
					}
				}
				return true
			}
			pos = q.tail.Load()
		case seq < pos:
			// The cell still holds an unconsumed item from one lap ago:
			// the ring is full at this instant.
			return false
		default:
			// Another producer claimed this cell; chase the ticket.
			pos = q.tail.Load()
		}
	}
}

// Await returns once the queue has an item for Pop: the consumer's
// "while the queue is empty do skip". On a Proc that is not a prim.Parker
// it is literally
//
//	for empty { p.Step() }
//
// so simulated schedules are unchanged. On a Parker the consumer steps for
// the Parker's Linger (prim.LingerWindow on rt), like every other wait,
// and then parks, taking no steps until a Push wakes it. A caller that
// polls for its result with short sleeps also needs the window: a Go
// process with every P idle rounds each sub-millisecond timer up to 1 ms.
// The consumer that waits must be the same task for the queue's whole
// life.
func (q *Queue[T]) Await(p prim.Proc) {
	pk, parks := p.(prim.Parker)
	if !parks {
		for q.empty() {
			p.Step()
		}
		return
	}
	linger := pk.Linger()
	for start := time.Now(); q.empty(); {
		if time.Since(start) < linger {
			p.Step()
			continue
		}
		if q.wake == nil {
			q.wake = pk.Waker()
		}
		q.sleeping.Store(true)
		if q.empty() {
			pk.Park()
		}
		q.sleeping.Store(false)
	}
}

// empty reports whether Pop would fail. Single consumer only.
func (q *Queue[T]) empty() bool {
	pos := q.head.Load()
	return q.buf[pos&q.mask].seq.Load() != pos+1
}

// Pop dequeues the oldest item; ok is false when the queue is empty (or
// the oldest claim is not yet published). Single consumer only.
func (q *Queue[T]) Pop() (T, bool) {
	pos := q.head.Load()
	c := &q.buf[pos&q.mask]
	if c.seq.Load() != pos+1 {
		var zero T
		return zero, false
	}
	v := c.val
	var zero T
	c.val = zero // do not retain popped values
	c.seq.Store(pos + q.mask + 1)
	q.head.Store(pos + 1)
	return v, true
}

// PopBatch dequeues up to len(buf) items into buf and returns how many it
// moved — one consumer wake servicing a whole run of queued items. Single
// consumer only.
func (q *Queue[T]) PopBatch(buf []T) int {
	n := 0
	pos := q.head.Load()
	for n < len(buf) {
		c := &q.buf[pos&q.mask]
		if c.seq.Load() != pos+1 {
			break
		}
		buf[n] = c.val
		var zero T
		c.val = zero
		c.seq.Store(pos + q.mask + 1)
		pos++
		n++
	}
	if n > 0 {
		q.head.Store(pos)
	}
	return n
}

// Len reports the number of queued items. It is a racy snapshot (tickets
// claimed but not yet published count as queued), good for telemetry and
// backpressure heuristics only.
func (q *Queue[T]) Len() int {
	d := q.tail.Load() - q.head.Load()
	if d < 0 {
		return 0
	}
	if d > int64(len(q.buf)) {
		return len(q.buf)
	}
	return int(d)
}
