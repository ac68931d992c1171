// Package shard turns the single-stack TBWF deployment into a sharded
// object space: a Map hash-partitions string keys across S independent
// TBWF stacks (each assembled through deploy.Build, each with its own
// Ω∆ elector picked from the internal/elector registry), a per-shard
// worker pool batches queued invocations so one leader read / QA
// agreement round is amortized across a whole batch, and admission
// control (token bucket per shard plus a global in-flight cap) sheds
// load under overload instead of queueing without bound.
//
// The keyspace object is a string→int64 KV map. Every operation —
// get, put, add, cas — returns the key's previous value, so a full
// service history is checkable for linearizability per key: an
// add-only workload's prev values totally order the ops.
//
// The Map runs on one substrate: all S stacks share the substrate's N
// processes, so per-process timeliness faults degrade every shard's
// replica p at once — exactly the production shape the paper's
// per-process progress guarantee is supposed to survive.
package shard

import (
	"sync"
	"time"

	"tbwf/internal/prim"
)

// Kind selects a KV operation.
type Kind uint8

const (
	// Get reads the key (Resp.Prev is its value, Resp.Found its presence).
	Get Kind = iota + 1
	// Put stores Val.
	Put
	// Add adds Val (a delta) to the key; absent keys count from 0.
	Add
	// CAS stores Val if the key's current value is Old (absent reads as 0).
	CAS
)

// String returns the wire name of the kind.
func (k Kind) String() string {
	switch k {
	case Get:
		return "get"
	case Put:
		return "put"
	case Add:
		return "add"
	case CAS:
		return "cas"
	}
	return "invalid"
}

// Op is one keyed operation.
type Op struct {
	Kind Kind
	Key  string
	// Val is Put's stored value, Add's delta, and CAS's new value.
	Val int64
	// Old is CAS's expected current value.
	Old int64
}

// Resp is one operation's response. Every kind reports the key's value
// before the op took effect, which keeps histories order-checkable.
type Resp struct {
	// Prev is the key's value before the op (0 when absent).
	Prev int64
	// Found reports whether the key existed before the op.
	Found bool
	// Swapped reports whether a CAS took effect.
	Swapped bool
}

// KV is the single-operation sequential specification of the keyspace
// object (qa.Type). It exists for checkers: the lincheck oracles verify
// per-shard service histories against it. The deployed stacks run
// BatchKV, whose batches fold to exactly this spec.
type KV struct{}

// Init returns the empty map.
func (KV) Init() map[string]int64 { return nil }

// Apply applies one op persistently: mutating kinds copy the map.
func (KV) Apply(s map[string]int64, op Op) (map[string]int64, Resp) {
	prev, found := s[op.Key]
	r := Resp{Prev: prev, Found: found}
	write := func(v int64) map[string]int64 {
		next := make(map[string]int64, len(s)+1)
		for k, val := range s {
			next[k] = val
		}
		next[op.Key] = v
		return next
	}
	switch op.Kind {
	case Put:
		return write(op.Val), r
	case Add:
		return write(prev + op.Val), r
	case CAS:
		if prev == op.Old {
			r.Swapped = true
			return write(op.Val), r
		}
	}
	return s, r
}

// BatchKV is the batched sequential specification the shard workers
// deploy (qa.Type over []Op): one QA round agrees on a whole batch, and
// replay applies its ops in submission order. The single map copy per
// batch — instead of one per op — is the state-side half of the
// batching amortization; the protocol-side half is one Ω∆ leader read
// and one agreement round for the batch.
type BatchKV struct{}

// Init returns the empty map.
func (BatchKV) Init() map[string]int64 { return nil }

// Apply applies the batch persistently (one copy, then in-place) and
// returns one response per op, index-aligned with the batch. The fence
// between batch order and response order is what the fuzzer's
// nobatchfence ablation breaks.
func (BatchKV) Apply(s map[string]int64, ops []Op) (map[string]int64, []Resp) {
	next := make(map[string]int64, len(s)+len(ops))
	for k, v := range s {
		next[k] = v
	}
	resps := make([]Resp, len(ops))
	for i, op := range ops {
		prev, found := next[op.Key]
		r := Resp{Prev: prev, Found: found}
		switch op.Kind {
		case Put:
			next[op.Key] = op.Val
		case Add:
			next[op.Key] = prev + op.Val
		case CAS:
			if prev == op.Old {
				r.Swapped = true
				next[op.Key] = op.Val
			}
		}
		resps[i] = r
	}
	return next, resps
}

// The keyspace's instantiation of the request path.
type (
	Config  = ConfigOf[Result]
	Hooks   = HooksOf[Result]
	Pending = PendingOf[Result]
)

// Result is one completed keyed operation.
type Result struct {
	Resp Resp
	// Latency is submit-to-completion wall time (meaningful on the live
	// substrate; host time, not steps, on the sim kernel).
	Latency time.Duration
}

var pendingPool sync.Pool

// NewPending prepares an in-flight slot for one keyed operation.
func NewPending() *Pending { return NewPendingOf[Result](&pendingPool, "") }

// Map is the sharded keyspace: a MapOf over BatchKV whose Submit stamps
// the routing key into the op.
type Map struct {
	*MapOf[map[string]int64, Op, Resp, Result]
}

// New deploys the keyspace's cfg.Shards stacks on the substrate.
func New(sub prim.Substrate, cfg Config) (*Map, error) {
	m, err := NewOf(sub, BatchKV{}, func(r Resp, lat time.Duration) Result {
		return Result{Resp: r, Latency: lat}
	}, cfg)
	if err != nil {
		return nil, err
	}
	return &Map{m}, nil
}

// Submit is MapOf.Submit with op.Key overwritten by key.
func (m *Map) Submit(key string, replica int, op Op, pd *Pending) (int, int, error) {
	op.Key = key
	return m.MapOf.Submit(key, replica, op, pd)
}

// KeyShard maps a key to its shard: FNV-1a over the key bytes, mod the
// shard count. Exported so clients (the load generator) can compute a
// key's shard without a server round-trip — shed responses included.
func KeyShard(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}
