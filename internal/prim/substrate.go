package prim

// This file defines the substrate-neutral deployment surface: the policy
// and option vocabulary shared by every register implementation, and the
// Substrate interface that lets one composition root (internal/deploy)
// wire the paper's stacks on either the simulation kernel or the
// real-time runtime.
//
// Register factories on Substrate are type-erased (Register[any]) because
// Go interfaces cannot carry generic methods. Algorithm code never sees
// the erasure: it goes through the typed adapters NewRegister /
// NewAbortable below, or through the typed fast paths in
// internal/register, which hand back the substrate's concrete register
// types whenever the substrate exposes them.

// Stats counts the operations performed on one register.
type Stats struct {
	Reads       int64
	Writes      int64
	ReadAborts  int64
	WriteAborts int64
}

// Op describes one register operation for policy decisions.
type Op struct {
	// Register is the register's name.
	Register string
	// Proc is the invoking process (-1 when the substrate cannot tell,
	// as on the real-time runtime where any goroutine may call in).
	Proc int
	// IsWrite distinguishes writes from reads.
	IsWrite bool
	// Step is the step at which the operation completes. On the
	// simulation kernel this is the global step counter; on the real-time
	// runtime it is the register's own operation sequence number.
	Step int64
}

// AbortPolicy decides whether a contended operation on an abortable
// register aborts. It is consulted only for operations that actually
// overlapped another operation on the same register; non-contended
// operations never abort.
type AbortPolicy interface {
	Abort(op Op) bool
}

// EffectPolicy decides whether an aborted write takes effect. The paper:
// "a write operation that aborts may or may not take effect and, since the
// writer gets back ⊥ in either case, it does not know whether its write
// operation succeeded or not."
type EffectPolicy interface {
	TakesEffect(op Op) bool
}

// AbortPolicyFunc adapts a function to AbortPolicy.
type AbortPolicyFunc func(op Op) bool

// Abort implements AbortPolicy.
func (f AbortPolicyFunc) Abort(op Op) bool { return f(op) }

// EffectPolicyFunc adapts a function to EffectPolicy.
type EffectPolicyFunc func(op Op) bool

// TakesEffect implements EffectPolicy.
func (f EffectPolicyFunc) TakesEffect(op Op) bool { return f(op) }

// AlwaysAbort aborts every contended operation: the strongest adversary and
// the default.
func AlwaysAbort() AbortPolicy {
	return AbortPolicyFunc(func(Op) bool { return true })
}

// NeverAbort never aborts; the abortable register then behaves atomically.
// Useful as a sanity baseline in tests.
func NeverAbort() AbortPolicy {
	return AbortPolicyFunc(func(Op) bool { return false })
}

// NoEffect makes aborted writes never take effect (default).
func NoEffect() EffectPolicy {
	return EffectPolicyFunc(func(Op) bool { return false })
}

// AlwaysEffect makes aborted writes always take effect.
func AlwaysEffect() EffectPolicy {
	return EffectPolicyFunc(func(Op) bool { return true })
}

// AbOption configures an abortable register.
type AbOption struct {
	abort  AbortPolicy
	effect EffectPolicy
	writer int
	reader int
	set    uint8
}

const (
	setAbort uint8 = 1 << iota
	setEffect
	setRoles
)

// WithAbortPolicy overrides the abort policy (default AlwaysAbort).
func WithAbortPolicy(p AbortPolicy) AbOption { return AbOption{abort: p, set: setAbort} }

// WithEffectPolicy overrides the effect policy for aborted writes
// (default NoEffect).
func WithEffectPolicy(p EffectPolicy) AbOption { return AbOption{effect: p, set: setEffect} }

// WithRoles restricts the register to one writer and one reader process
// (single-writer single-reader), as in Section 6. The simulation substrate
// enforces roles (a wrong-process access panics); the real-time substrate
// records them for telemetry without enforcement, since its registers
// cannot attribute an operation to a process.
func WithRoles(writer, reader int) AbOption {
	return AbOption{writer: writer, reader: reader, set: setRoles}
}

// AbConfig is the resolved form of a register's options: what every
// substrate's abortable register implementation consumes.
type AbConfig struct {
	Abort  AbortPolicy
	Effect EffectPolicy
	// Writer and Reader are the SWSR roles; -1 means unrestricted.
	Writer, Reader int
}

// ApplyAbOptions folds options over the defaults (AlwaysAbort, NoEffect,
// unrestricted roles) in order.
func ApplyAbOptions(opts ...AbOption) AbConfig {
	cfg := AbConfig{Abort: AlwaysAbort(), Effect: NoEffect(), Writer: -1, Reader: -1}
	for _, o := range opts {
		if o.set&setAbort != 0 {
			cfg.Abort = o.abort
		}
		if o.set&setEffect != 0 {
			cfg.Effect = o.effect
		}
		if o.set&setRoles != 0 {
			cfg.Writer, cfg.Reader = o.writer, o.reader
		}
	}
	return cfg
}

// Substrate is a place the paper's stacks can be deployed on: it spawns
// tasks onto processes and manufactures the two shared-register flavors.
// Both sim.Kernel (via register.Substrate / deploy.Sim) and rt.Runtime
// implement it, so the composition root in internal/deploy is written
// once.
type Substrate interface {
	Spawner
	// N returns the number of processes.
	N() int
	// SubstrateName identifies the substrate ("sim", "rt") for telemetry.
	SubstrateName() string
	// NewRegisterAny creates a named atomic register holding values of
	// init's dynamic type. Use the typed adapter NewRegister, or the
	// typed fast paths in internal/register, rather than calling this
	// directly.
	NewRegisterAny(name string, init any) Register[any]
	// NewAbortableAny creates a named abortable register. Same erasure
	// caveat as NewRegisterAny; use NewAbortable.
	NewAbortableAny(name string, init any, opts ...AbOption) AbortableRegister[any]
}

// NewRegister creates a typed atomic register on the substrate. The
// returned register forwards Name and Stats from the substrate's
// implementation when it has them.
func NewRegister[T any](s Substrate, name string, init T) Register[T] {
	return typedRegister[T]{inner: s.NewRegisterAny(name, init)}
}

// NewAbortable creates a typed abortable register on the substrate.
func NewAbortable[T any](s Substrate, name string, init T, opts ...AbOption) AbortableRegister[T] {
	return typedAbortable[T]{inner: s.NewAbortableAny(name, init, opts...)}
}

type typedRegister[T any] struct{ inner Register[any] }

func (r typedRegister[T]) Read() T      { return r.inner.Read().(T) }
func (r typedRegister[T]) Write(v T)    { r.inner.Write(v) }
func (r typedRegister[T]) Name() string { return RegisterName(r.inner) }
func (r typedRegister[T]) Stats() Stats {
	s, _ := RegisterStats(r.inner)
	return s
}

type typedAbortable[T any] struct{ inner AbortableRegister[any] }

func (r typedAbortable[T]) Read() (T, bool) {
	v, ok := r.inner.Read()
	if !ok {
		var zero T
		return zero, false
	}
	return v.(T), true
}
func (r typedAbortable[T]) Write(v T) bool { return r.inner.Write(v) }
func (r typedAbortable[T]) Name() string   { return RegisterName(r.inner) }
func (r typedAbortable[T]) Stats() Stats {
	s, _ := RegisterStats(r.inner)
	return s
}

// RegisterName returns a register's name if its implementation exposes
// one, else "".
func RegisterName(r any) string {
	if n, ok := r.(interface{ Name() string }); ok {
		return n.Name()
	}
	return ""
}

// RegisterStats returns a register's operation counters if its
// implementation exposes them.
func RegisterStats(r any) (Stats, bool) {
	if s, ok := r.(interface{ Stats() Stats }); ok {
		return s.Stats(), true
	}
	return Stats{}, false
}
