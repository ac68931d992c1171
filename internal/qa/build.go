package qa

import (
	"tbwf/internal/prim"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

// SubstrateFactories returns register factories backed by any substrate's
// abortable registers. The ballot and vote registers are single-writer
// multi-reader; the decision cache is multi-writer. The register options
// (abort/effect policies) apply to every register; the default is the
// strongest adversary. On a simulation-kernel substrate the registers are
// the kernel's concrete typed ones (register.SubstrateAbortable's fast
// path); register names and roles propagate on every substrate.
func SubstrateFactories[O any](sub prim.Substrate, opts ...prim.AbOption) Factories[O] {
	return Factories[O]{
		Ballot: func(name string, writer int) prim.AbortableRegister[int64] {
			return register.SubstrateAbortable(sub, name, int64(0), append(opts, prim.WithRoles(writer, -1))...)
		},
		Accept: func(name string, writer int) prim.AbortableRegister[Accepted[O]] {
			return register.SubstrateAbortable(sub, name, Accepted[O]{}, append(opts, prim.WithRoles(writer, -1))...)
		},
		Decide: func(name string) prim.AbortableRegister[Decision[O]] {
			return register.SubstrateAbortable(sub, name, Decision[O]{}, opts...)
		},
	}
}

// SimFactories returns register factories backed by the simulation
// kernel's abortable registers.
func SimFactories[O any](k *sim.Kernel, opts ...prim.AbOption) Factories[O] {
	return SubstrateFactories[O](register.Substrate(k), opts...)
}

// NewSim creates a query-abortable object whose registers live on the
// given simulation kernel, for the kernel's process count.
func NewSim[S, O, R any](k *sim.Kernel, typ Type[S, O, R], opts ...prim.AbOption) (*SharedObject[S, O, R], error) {
	return New(typ, k.N(), SimFactories[O](k, opts...), 0)
}
