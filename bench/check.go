package main

import (
	"math"
	"sort"

	"tbwf/internal/shard"
)

// checkCounterChain verifies a fetch-and-add counter's history. Every add
// has delta 1 and returns the value before it, so the acknowledged prev
// values must be duplicate-free and, up to the operations that were sent
// but never acknowledged (each may or may not have taken effect), cover
// 0..final-1 without a gap, where final is the value a read returned
// after the last add completed. It reports violations on o and returns
// how many acknowledged ops are wrong (duplicates and out-of-range).
func checkCounterChain(o *outcome, what string, prevs []int64, final int64, unacked int64) int64 {
	bad := int64(0)
	seen := make(map[int64]bool, len(prevs))
	for _, p := range prevs {
		switch {
		case p < 0 || p >= final:
			o.violate("%s: add returned prev %d outside [0,%d)", what, p, final)
			bad++
		case seen[p]:
			o.violate("%s: prev %d returned twice", what, p)
			bad++
		default:
			seen[p] = true
		}
	}
	if missing := final - int64(len(seen)); missing > unacked {
		o.violate("%s: %d counter values unclaimed by any acknowledged add, only %d ops unacknowledged",
			what, missing, unacked)
		bad++
	}
	return bad
}

// checkMonotone verifies real-time order on one sequential client: each
// op starts after the previous one returned, so its prev must be larger.
func checkMonotone(o *outcome, what string, prevs []int64) int64 {
	bad := int64(0)
	for i := 1; i < len(prevs); i++ {
		if prevs[i] <= prevs[i-1] {
			o.violate("%s: op %d returned prev %d after op %d returned %d", what, i, prevs[i], i-1, prevs[i-1])
			bad++
		}
	}
	return bad
}

// kvOp is one acknowledged keyed operation as its submitter saw it.
type kvOp struct {
	key      int
	kind     shard.Kind
	val, old int64
	resp     shard.Resp
	// invoke (before Submit) and response (result received) are
	// nanoseconds on the submitter's monotonic clock.
	invoke, response int64
}

// mutates reports whether the op changed its key, and by how much.
func (op *kvOp) mutates() (bool, int64) {
	switch op.kind {
	case shard.Add:
		return true, op.val
	case shard.CAS:
		if op.resp.Swapped {
			return true, op.val - op.old
		}
	}
	return false, 0
}

// checkKV verifies per-key linearizability of a keyed history, the way
// TestShardedKeyspaceIntegration does, extended to reads and failed CAS.
// Every mutation strictly raises its key's value, so a key's mutations,
// sorted by the prev they returned, must form the exact chain
// prev_0 = 0, prev_{i+1} = prev_i + delta_i — the only candidate
// linearization. A non-mutating op saw the state between two links; it is
// placed there. The resulting order must respect real time: no op may be
// placed after one that was invoked only after it had responded. Ops on
// different keys commute, so per-key checks suffice. It returns the number
// of ops that break a rule.
func checkKV(o *outcome, ops []kvOp) int64 {
	byKey := map[int][]*kvOp{}
	for i := range ops {
		byKey[ops[i].key] = append(byKey[ops[i].key], &ops[i])
	}
	bad := int64(0)
	for key, kops := range byKey {
		var muts, reads []*kvOp
		for _, op := range kops {
			switch {
			case op.kind == shard.CAS && op.resp.Swapped != (op.resp.Prev == op.old):
				o.violate("key %d: cas(old=%d) saw prev %d but swapped=%v", key, op.old, op.resp.Prev, op.resp.Swapped)
				bad++
			default:
				if m, _ := op.mutates(); m {
					muts = append(muts, op)
				} else {
					reads = append(reads, op)
				}
			}
		}
		sort.Slice(muts, func(i, j int) bool { return muts[i].resp.Prev < muts[j].resp.Prev })
		// slot[v] is the number of mutations applied in the state whose
		// value is v.
		slot := map[int64]int{0: 0}
		want, chainOK := int64(0), true
		for i, op := range muts {
			if op.resp.Prev != want {
				o.violate("key %d: mutation %d returned prev %d, chain wants %d", key, i, op.resp.Prev, want)
				bad++
				chainOK = false
				break
			}
			_, d := op.mutates()
			want += d
			slot[want] = i + 1
		}
		if !chainOK {
			continue
		}
		// order is the candidate linearization: each mutation followed by
		// the reads that saw the state it produced, earliest invoke first.
		bySlot := make([][]*kvOp, len(muts)+1)
		for _, op := range reads {
			s, ok := slot[op.resp.Prev]
			if !ok {
				o.violate("key %d: %v returned prev %d, a value the key never held", key, op.kind, op.resp.Prev)
				bad++
				continue
			}
			bySlot[s] = append(bySlot[s], op)
		}
		order := make([]*kvOp, 0, len(kops))
		for s := range bySlot {
			if s > 0 {
				order = append(order, muts[s-1])
			}
			rs := bySlot[s]
			sort.Slice(rs, func(i, j int) bool { return rs[i].invoke < rs[j].invoke })
			order = append(order, rs...)
		}
		// minRespAfter is the earliest response among the ops placed
		// later; an op invoked after it cannot come first.
		minRespAfter := int64(math.MaxInt64)
		for i := len(order) - 1; i >= 0; i-- {
			if minRespAfter < order[i].invoke {
				o.violate("key %d: linearization order contradicts real time at position %d", key, i)
				bad++
			}
			minRespAfter = min(minRespAfter, order[i].response)
		}
	}
	return bad
}
