package register

import (
	"tbwf/internal/prim"
	"tbwf/internal/rt"
	"tbwf/internal/sim"
)

// Substrate adapts a simulation kernel to prim.Substrate, so the unified
// composition root (internal/deploy) can wire the paper's stacks on it.
// The adapter also advertises the kernel through SimKernel, which the
// typed fast paths below probe to hand back this package's concrete
// register types — keeping the hot simulation paths free of interface
// boxing.
func Substrate(k *sim.Kernel) prim.Substrate { return simSubstrate{k: k} }

type simSubstrate struct{ k *sim.Kernel }

// SimKernel exposes the wrapped kernel; the typed register fast paths and
// substrate-aware builders probe for it.
func (s simSubstrate) SimKernel() *sim.Kernel { return s.k }

func (s simSubstrate) Spawn(proc int, name string, fn func(p prim.Proc)) {
	s.k.Spawn(proc, name, fn)
}

func (s simSubstrate) N() int                { return s.k.N() }
func (s simSubstrate) SubstrateName() string { return "sim" }

func (s simSubstrate) NewRegisterAny(name string, init any) prim.Register[any] {
	return NewAtomic[any](s.k, name, init)
}

func (s simSubstrate) NewAbortableAny(name string, init any, opts ...prim.AbOption) prim.AbortableRegister[any] {
	return NewAbortable[any](s.k, name, init, opts...)
}

// simKerneler is the capability a substrate advertises when it wraps a
// simulation kernel.
type simKerneler interface{ SimKernel() *sim.Kernel }

// Kernel returns the simulation kernel behind a substrate, if any.
func Kernel(sub prim.Substrate) (*sim.Kernel, bool) {
	if sk, ok := sub.(simKerneler); ok {
		return sk.SimKernel(), true
	}
	return nil, false
}

// SubstrateAtomic creates a typed atomic register on any substrate. On a
// simulation-kernel substrate it returns this package's concrete
// *Atomic[T] (no boxing, byte-identical behavior to NewAtomic); on the
// real-time runtime it returns rt's concrete *rt.Atomic[T] — the live
// invoke path's zero-alloc fast path, since the type-erased fallback
// boxes every struct-typed Write into a fresh interface allocation.
// Other substrates (net) go through the type-erased factory.
func SubstrateAtomic[T any](sub prim.Substrate, name string, init T) prim.Register[T] {
	if k, ok := Kernel(sub); ok {
		return NewAtomic(k, name, init)
	}
	if _, ok := sub.(*rt.Runtime); ok {
		return rt.NewNamedAtomic(name, init)
	}
	return prim.NewRegister(sub, name, init)
}

// SubstrateAbortable creates a typed abortable register on any substrate,
// with the same sim/rt fast paths as SubstrateAtomic.
func SubstrateAbortable[T any](sub prim.Substrate, name string, init T, opts ...prim.AbOption) prim.AbortableRegister[T] {
	if k, ok := Kernel(sub); ok {
		return NewAbortable(k, name, init, opts...)
	}
	if _, ok := sub.(*rt.Runtime); ok {
		return rt.NewNamedAbortable(name, init, opts...)
	}
	return prim.NewAbortable(sub, name, init, opts...)
}
