package consensus

import (
	"fmt"

	"tbwf/internal/elector"
	"tbwf/internal/prim"
	"tbwf/internal/register"
)

// SubstrateRegisters returns consensus register factories backed by any
// substrate's abortable registers (the simulation kernel's concrete typed
// ones on a sim substrate).
func SubstrateRegisters[V comparable](sub prim.Substrate, opts ...register.AbOption) Registers[V] {
	return Registers[V]{
		Ballot: func(name string, writer int) prim.AbortableRegister[int64] {
			return register.SubstrateAbortable(sub, name, int64(0), append(opts, register.WithRoles(writer, -1))...)
		},
		Accept: func(name string, writer int) prim.AbortableRegister[accepted[V]] {
			return register.SubstrateAbortable(sub, name, accepted[V]{}, append(opts, register.WithRoles(writer, -1))...)
		},
		Msg: func(name string, writer, reader int) prim.AbortableRegister[decision[V]] {
			return register.SubstrateAbortable(sub, name, decision[V]{}, append(opts, register.WithRoles(writer, reader))...)
		},
	}
}

// Build wires a full consensus deployment on any substrate — Ω∆ from the
// given elector (nil: elector.Abortable, the paper's abortable-registers
// construction), one consensus instance, and one participant task per
// process proposing proposals[p] — and spawns everything.
func Build[V comparable](sub prim.Substrate, proposals []V, builder elector.Builder, opts ...register.AbOption) ([]*Participant[V], error) {
	n := sub.N()
	if len(proposals) != n {
		return nil, fmt.Errorf("consensus: %d proposals for %d processes", len(proposals), n)
	}
	if builder == nil {
		builder = elector.Abortable
	}
	el, err := builder.Build(sub, elector.Config{RegisterOptions: opts})
	if err != nil {
		return nil, fmt.Errorf("consensus: %w", err)
	}
	endpoints := el.Instances()
	inst, err := New(n, SubstrateRegisters[V](sub, opts...))
	if err != nil {
		return nil, err
	}
	parts := make([]*Participant[V], n)
	for p := 0; p < n; p++ {
		part, task, err := Task(p, inst, endpoints[p], proposals[p])
		if err != nil {
			return nil, err
		}
		parts[p] = part
		sub.Spawn(p, fmt.Sprintf("consensus[%d]", p), task)
	}
	return parts, nil
}

// DecidedAll reports whether every process in procs has decided, and if
// so, whether they agree; it returns the agreed value.
func DecidedAll[V comparable](parts []*Participant[V], procs []int) (val V, all bool, agree bool) {
	var zero V
	first := true
	agree = true
	for _, p := range procs {
		if !parts[p].Decided.Get() {
			return zero, false, false
		}
		v := parts[p].Value.Get()
		if first {
			val, first = v, false
		} else if v != val {
			agree = false
		}
	}
	return val, true, agree
}
