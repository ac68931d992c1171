package register

import (
	"math/rand"

	"tbwf/internal/prim"
)

// Tape is a recorded source of policy coin flips: every decision it hands
// out is appended to a replayable record, and a tape built from a previous
// record re-issues those decisions verbatim before falling back to fresh
// seeded draws. Abort/effect policies drawing from a tape make a simulated
// run a pure function of (seed, record): the schedule-space fuzzer
// (internal/explore) stores the record in its failure artifacts, so a
// replayed run sees byte-identical policy behaviour even though the
// policies are nominally probabilistic.
//
// A tape is not safe for concurrent use; share one tape only among the
// registers of a single kernel (where the step baton serializes all policy
// consultations).
type Tape struct {
	seed int64
	rng  *rand.Rand
	bits []byte // '1' (true) or '0' (false), one per decision, in draw order
	pos  int    // replay cursor into bits
}

// NewTape returns an empty tape whose fresh draws come from the given seed.
func NewTape(seed int64) *Tape {
	return &Tape{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// ReplayTape returns a tape that re-issues the recorded bits verbatim and
// then extends the record deterministically from seed. bits is a string of
// '0'/'1' as returned by Bits; any other byte is treated as '0'.
func ReplayTape(seed int64, bits string) *Tape {
	t := NewTape(seed)
	t.bits = []byte(bits)
	return t
}

// Bool returns the next decision: the next recorded bit when one remains,
// otherwise a fresh draw that is true with probability p. Either way the
// decision is part of the tape's record afterwards.
func (t *Tape) Bool(p float64) bool {
	if t.pos < len(t.bits) {
		b := t.bits[t.pos] == '1'
		t.pos++
		return b
	}
	b := t.rng.Float64() < p
	if b {
		t.bits = append(t.bits, '1')
	} else {
		t.bits = append(t.bits, '0')
	}
	t.pos++
	return b
}

// Seed returns the seed fresh draws come from.
func (t *Tape) Seed() int64 { return t.seed }

// Bits returns the decision record so far as a '0'/'1' string.
func (t *Tape) Bits() string { return string(t.bits) }

// Len returns the number of decisions recorded so far.
func (t *Tape) Len() int { return len(t.bits) }

// TapedAbort aborts each contended operation according to the tape: fresh
// draws abort with probability p. With p = 1 it behaves like AlwaysAbort
// while still recording (and replaying) every decision.
func TapedAbort(p float64, t *Tape) prim.AbortPolicy {
	return prim.AbortPolicyFunc(func(prim.Op) bool { return t.Bool(p) })
}

// TapedEffect makes each aborted write take effect according to the tape:
// fresh draws take effect with probability p.
func TapedEffect(p float64, t *Tape) prim.EffectPolicy {
	return prim.EffectPolicyFunc(func(prim.Op) bool { return t.Bool(p) })
}
