// Package register implements the shared registers of the paper's model on
// top of the simulation kernel (internal/sim): atomic registers (Sections
// 3 and 5) and abortable registers (Section 6).
//
// On the kernel, a register operation spans two steps — invocation and
// response — so two operations are *concurrent* when their [invoke,
// response] windows overlap. Abortable registers detect overlap exactly and
// delegate to a prim.AbortPolicy whether each contended operation aborts,
// and to a prim.EffectPolicy whether an aborted write takes effect. The
// defaults are the strongest adversary the specification allows (every
// contended operation aborts; aborted writes take no effect): the paper's
// algorithms must work against it, and tests sweep the weaker policies.
//
// The policy and option vocabulary is substrate-neutral and lives in
// internal/prim; this package adds the seeded probabilistic policies and
// the recording Tape.
package register

import (
	"math/rand"

	"tbwf/internal/prim"
)

// ProbAbort aborts each contended operation independently with probability
// p, using a deterministic seeded source.
func ProbAbort(p float64, seed int64) prim.AbortPolicy {
	rng := rand.New(rand.NewSource(seed))
	return prim.AbortPolicyFunc(func(prim.Op) bool { return rng.Float64() < p })
}

// ProbEffect makes each aborted write take effect with probability p, using
// a deterministic seeded source.
func ProbEffect(p float64, seed int64) prim.EffectPolicy {
	rng := rand.New(rand.NewSource(seed))
	return prim.EffectPolicyFunc(func(prim.Op) bool { return rng.Float64() < p })
}
