package serve

// The sharded keyed API. With Config.Shards > 0 the server deploys a
// second Backend next to the unsharded one: S independent TBWF stacks of
// the string→int64 keyspace over the same N replicas, a hash of the key
// picking the stack. Replica workers fold queued keyed ops into batches —
// one Ω∆ leader read and one QA agreement round per batch — and admission
// control sheds overload before it reaches a queue (dispatch, serve.go).

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"tbwf/internal/prim"
	"tbwf/internal/shard"
)

// KVKinds lists the keyed API's operation kinds, in wire order. Surfaced
// in /v1/stats so load generators can validate a mix before opening fire.
func KVKinds() []string { return []string{"get", "put", "add", "cas"} }

// ParseAdmission compiles an admission spec of comma-separated
// key=value terms into a shard.Admission:
//
//	rate=R       token-bucket refill rate, ops/sec (fractional ok)
//	burst=B      bucket capacity (needs rate; default 1)
//	inflight=M   global cap on admitted-but-incomplete operations
//
// The empty spec admits everything.
func ParseAdmission(spec string) (shard.Admission, error) {
	var a shard.Admission
	if spec == "" {
		return a, nil
	}
	var rate float64
	for _, term := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return a, fmt.Errorf("serve: admission term %q: want key=value", term)
		}
		switch k {
		case "rate":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				return a, fmt.Errorf("serve: admission rate %q: want a positive ops/sec", v)
			}
			rate = f
		case "burst":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return a, fmt.Errorf("serve: admission burst %q: want a positive integer", v)
			}
			a.Burst = n
		case "inflight":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return a, fmt.Errorf("serve: admission inflight %q: want a positive integer", v)
			}
			a.MaxInFlight = n
		default:
			return a, fmt.Errorf("serve: unknown admission key %q (want rate, burst, or inflight)", k)
		}
	}
	if a.Burst > 0 && rate == 0 {
		return a, fmt.Errorf("serve: admission burst without rate")
	}
	if rate > 0 {
		a.RefillEvery = int64(1e9 / rate)
		if a.RefillEvery < 1 {
			a.RefillEvery = 1
		}
	}
	return a, nil
}

// decodeKVOp maps a WireOp onto the keyed object's vocabulary, reusing
// the unsharded API's field names: add carries delta, put value, cas
// old and new.
func decodeKVOp(op WireOp) (shard.Op, error) {
	switch op.Kind {
	case "get":
		return shard.Op{Kind: shard.Get, Key: op.Key}, nil
	case "put":
		return shard.Op{Kind: shard.Put, Key: op.Key, Val: op.Value}, nil
	case "add":
		return shard.Op{Kind: shard.Add, Key: op.Key, Val: op.Delta}, nil
	case "cas":
		return shard.Op{Kind: shard.CAS, Key: op.Key, Old: op.Old, Val: op.New}, nil
	default:
		return shard.Op{}, fmt.Errorf("serve: kv op kind %q (want one of %v)", op.Kind, KVKinds())
	}
}

type kvResp struct {
	Prev    int64 `json:"prev"`
	Found   bool  `json:"found"`
	Swapped bool  `json:"swapped"`
}

var kvRespPool = sync.Pool{New: func() any { return new(kvResp) }}

func (c *kvResp) Release() { kvRespPool.Put(c) }

// newKVBackend deploys the sharded keyspace behind the Backend face: the
// unkeyed objects' codec over shard.BatchKV, which folds a batch with one
// map copy and so is deployed as it is, not lifted through qa.Batch.
func newKVBackend(sub prim.Substrate, lanes shard.ConfigOf[Result]) (Backend, error) {
	return newBackend(sub, lanes, true, shard.BatchKV{}, decodeKVOp,
		func(r shard.Resp) any {
			c := kvRespPool.Get().(*kvResp)
			c.Prev, c.Found, c.Swapped = r.Prev, r.Found, r.Swapped
			return c
		},
		"get", KVKinds())
}
