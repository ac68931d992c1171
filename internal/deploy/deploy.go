// Package deploy is the single composition root for TBWF object stacks:
// one generic Build that wires Ω∆ (any registered elector), the
// query-abortable object, and the per-process clients on *any*
// prim.Substrate — the deterministic simulation kernel (via Sim) or the
// live real-time runtime (rt.Runtime is itself a Substrate).
//
// The point, per the paper and per Alistarh et al.'s observation that
// progress is a property of the scheduler as much as of the code, is that
// exactly the same wiring runs under both schedulers: tests and the
// schedule-space fuzzer explore the very stack the service layer runs
// hot. Before this package, internal/core (sim) and internal/rt (live)
// each had their own divergent builder; both now delegate here or are
// gone.
//
// Which Ω∆ implementation backs the stack is an open extension point, not
// an enum: BuildConfig carries an elector.Builder, and the stack exposes
// only the elector.Elector telemetry surface. deploy itself contains no
// elector-specific code.
package deploy

import (
	"fmt"

	"tbwf/internal/core"
	"tbwf/internal/elector"
	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

// Sim adapts a simulation kernel to prim.Substrate. It is
// register.Substrate re-exported under the deployment vocabulary:
// deploy.Build(deploy.Sim(k), ...) is the sim composition root.
func Sim(k *sim.Kernel) prim.Substrate { return register.Substrate(k) }

// BuildConfig configures a TBWF stack.
type BuildConfig struct {
	// Elector builds the stack's Ω∆ implementation; nil defaults to
	// elector.Atomic (the paper's Figure 3 construction).
	Elector elector.Builder
	// NonCanonical disables the Figure 7 line 2 wait (experiment E7 only).
	NonCanonical bool
	// RegisterOptions apply to every abortable register in the stack
	// (the qa object's, and Ω∆'s when the elector uses abortable
	// registers).
	RegisterOptions []prim.AbOption
}

// Stack is a fully wired TBWF object deployment: Ω∆ (its tasks already
// spawned), the underlying query-abortable object, and one client per
// process. Client *tasks* are not spawned — the caller drives
// Clients[p].Invoke from its own workload tasks.
type Stack[S, O, R any] struct {
	// Elector is the deployed Ω∆ implementation; telemetry layers tap
	// leader outputs and fault counters through it.
	Elector elector.Elector
	// Instances[p] is process p's Ω∆ endpoint.
	Instances []*omega.Instance
	// Object is the shared query-abortable object.
	Object *qa.SharedObject[S, O, R]
	// Clients[p] is process p's TBWF endpoint.
	Clients []*core.Client[S, O, R]
}

// Build wires a TBWF object of the given sequential type for every
// process of the substrate.
func Build[S, O, R any](sub prim.Substrate, typ qa.Type[S, O, R], cfg BuildConfig) (*Stack[S, O, R], error) {
	builder := cfg.Elector
	if builder == nil {
		builder = elector.Atomic
	}
	n := sub.N()
	el, err := builder.Build(sub, elector.Config{RegisterOptions: cfg.RegisterOptions})
	if err != nil {
		return nil, fmt.Errorf("deploy: build elector %s: %w", builder.FlagName(), err)
	}
	st := &Stack[S, O, R]{Elector: el, Instances: el.Instances()}
	if len(st.Instances) != n {
		return nil, fmt.Errorf("deploy: elector %s deployed %d endpoints on an n=%d substrate",
			el.Name(), len(st.Instances), n)
	}

	obj, err := qa.New(typ, n, qa.SubstrateFactories[O](sub, cfg.RegisterOptions...), 0)
	if err != nil {
		return nil, fmt.Errorf("deploy: build qa object: %w", err)
	}
	st.Object = obj

	st.Clients = make([]*core.Client[S, O, R], n)
	for p := 0; p < n; p++ {
		var c *core.Client[S, O, R]
		var err error
		if cfg.NonCanonical {
			c, err = core.NewClientNonCanonical(st.Instances[p], obj.Handle(p))
		} else {
			c, err = core.NewClient(st.Instances[p], obj.Handle(p))
		}
		if err != nil {
			return nil, fmt.Errorf("deploy: client %d: %w", p, err)
		}
		st.Clients[p] = c
	}
	return st, nil
}

// CompletedOps returns each client's completed-operation count.
func (st *Stack[S, O, R]) CompletedOps() []int64 {
	out := make([]int64, len(st.Clients))
	for p, c := range st.Clients {
		out[p] = c.Completed()
	}
	return out
}

// Leaders returns the current leader output of every process — a
// telemetry tap; it consumes no process steps. It works for every
// elector.
func (st *Stack[S, O, R]) Leaders() []int { return st.Elector.Leaders() }

// FaultMatrix returns the elector's per-pair fault/penalty matrix, or
// ok=false when the elector maintains none (the Figure 4–6 construction
// has no fault counters).
func (st *Stack[S, O, R]) FaultMatrix() ([][]int64, bool) {
	return st.Elector.FaultMatrix()
}
