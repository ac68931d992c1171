// Package elector is the pluggable Ω∆ seam: every leader-elector
// implementation in the repo deploys behind the same two-sided contract,
// so the composition root (internal/deploy), the telemetry layers
// (internal/serve, internal/monitor taps) and the fuzz/experiment drivers
// never name a concrete construction.
//
// The contract has two halves:
//
//   - Builder constructs an elector on any prim.Substrate. Builders are
//     registered by flag name ("atomic", "abortable", "nerio",
//     "reputation"); Parse maps a flag value onto them.
//   - Elector is a deployed instance: its tasks are already spawned, and it
//     exposes the uniform telemetry surface every consumer reads — the
//     per-process endpoints (omega.Instance: candidate_p in, leader_p out),
//     the live leader vector, and a per-pair fault/penalty matrix with an
//     explicit "not supported" shape instead of a nil sentinel.
//
// The paper's two constructions (internal/omega, Figures 2–3; and
// internal/omegaab, Figures 4–6) are two implementations among peers here;
// nerio.go and reputation.go add two competitors from the related work so
// that Definition 5 conformance is a differentiating, checkable property
// (see internal/elector/electortest and the explore elector-* fuzz
// targets) rather than an assumption baked into the composition root.
package elector

import (
	"fmt"
	"sort"
	"strings"

	"tbwf/internal/omega"
	"tbwf/internal/prim"
)

// Elector is a deployed Ω∆ implementation: per-process endpoints plus the
// uniform telemetry surface. All methods are telemetry taps — they consume
// no process steps and are safe to call from outside the substrate's tasks
// (samplers, AfterStep hooks, HTTP handlers).
type Elector interface {
	// Name identifies the implementation for telemetry and reports
	// ("atomic-registers", "abortable-registers", "nerio-lease",
	// "reputation-penalty").
	Name() string
	// Instances returns the per-process Ω∆ endpoints: Instances()[p] is
	// process p's candidate input and leader output.
	Instances() []*omega.Instance
	// Leaders returns every process's current leader output.
	Leaders() []int
	// FaultMatrix returns the implementation's per-pair fault/penalty
	// matrix — matrix[p][q] counts how many times p held q against the
	// leadership choice (suspicions, penalties, or depositions, per the
	// implementation) — or ok=false when the implementation maintains no
	// such matrix (the Figure 4–6 construction has no fault counters).
	FaultMatrix() (matrix [][]int64, ok bool)
}

// Config carries the substrate-independent knobs a Builder consumes.
type Config struct {
	// RegisterOptions apply to every abortable register the elector
	// creates. Electors built purely from atomic registers ignore them.
	RegisterOptions []prim.AbOption
}

// Builder constructs one elector implementation on a substrate. FlagName
// is the canonical user-facing name ("atomic", ...); Build wires the
// registers, spawns the tasks, and returns the deployed instance.
type Builder interface {
	FlagName() string
	Build(sub prim.Substrate, cfg Config) (Elector, error)
}

// builderFunc adapts a name and a function to Builder.
type builderFunc struct {
	name  string
	build func(sub prim.Substrate, cfg Config) (Elector, error)
}

func (b builderFunc) FlagName() string { return b.name }
func (b builderFunc) Build(sub prim.Substrate, cfg Config) (Elector, error) {
	return b.build(sub, cfg)
}

// NewBuilder wraps a construction function as a registrable Builder.
func NewBuilder(flagName string, build func(sub prim.Substrate, cfg Config) (Elector, error)) Builder {
	return builderFunc{name: flagName, build: build}
}

// registry maps flag names to builders.
var registry = map[string]Builder{}

// Register adds a builder to the registry. Registering a duplicate flag
// name panics: the registry is assembled at init time and a collision is a
// programming error.
func Register(b Builder) {
	name := b.FlagName()
	if name == "" {
		panic("elector: builder with empty flag name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("elector: duplicate builder %q", name))
	}
	registry[name] = b
}

// Names returns the registered flag names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ByName resolves a registered builder by its exact flag name.
func ByName(name string) (Builder, error) {
	if b, ok := registry[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("elector: unknown elector %q (accepted values: %s)",
		name, strings.Join(Names(), ", "))
}

// Parse maps a flag value to a Builder: "" is the default (Atomic), any
// other value must be a registered flag name. The error lists the accepted
// values.
func Parse(s string) (Builder, error) {
	if s == "" {
		return Atomic, nil
	}
	return ByName(s)
}
