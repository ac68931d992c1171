// Package primtest is a conformance suite for prim.Substrate
// implementations. Both substrates — the deterministic simulation kernel
// (through the internal/register adapter, i.e. deploy.Sim) and the
// real-time runtime — must present the same contract to algorithm code:
// tasks land on the process they were spawned on, Step consumes schedule
// allocation and unwinds on crash, registers are read-your-writes and
// visible across tasks, abortable registers never abort solo operations,
// factories preserve register names and operation counters, and
// prim.Var.Await is "while ¬ok(x) do skip" — on a deterministic substrate
// step for step.
//
// A substrate test package builds a Harness around a fresh substrate and
// calls Run; the suite never imports a substrate itself, so it sits below
// both and cannot create an import cycle.
package primtest

import (
	"sync/atomic"
	"testing"

	"tbwf/internal/prim"
)

// Harness adapts one substrate instance to the suite.
//
// Run must drive the substrate until done() reports true and then return
// nil, or return an error if the substrate stalls (budget exhausted,
// timeout). On the simulation kernel that means pumping Kernel.Run; on
// the real-time runtime, polling done while the goroutines free-run.
type Harness struct {
	// Sub is the substrate under test, with at least two processes.
	Sub prim.Substrate
	// Run drives spawned tasks until done() is true.
	Run func(done func() bool) error
	// Crash crashes process p mid-run. Nil skips the crash-unwinding
	// test for substrates without crash injection.
	Crash func(p int)
	// TraceHash fingerprints the run so far: which process took each step
	// and what it did. Non-nil only where runs repeat exactly (the
	// simulation kernel); the Await test then requires Var.Await and the
	// hand-written skip loop to produce the same hash.
	TraceHash func() string
}

// Run exercises the substrate contract. mk must return a fresh Harness —
// a new substrate with no tasks — on every call, since each subtest
// spawns its own task population.
func Run(t *testing.T, mk func(t *testing.T) *Harness) {
	t.Run("SpawnStepAccounting", func(t *testing.T) { testSpawnStep(t, mk(t)) })
	t.Run("RegisterHandoff", func(t *testing.T) { testRegisterHandoff(t, mk(t)) })
	t.Run("AbortableSolo", func(t *testing.T) { testAbortableSolo(t, mk(t)) })
	t.Run("AbortableNeverAbort", func(t *testing.T) { testAbortableNeverAbort(t, mk(t)) })
	t.Run("CrashUnwinds", func(t *testing.T) { testCrashUnwinds(t, mk(t)) })
	t.Run("RegisterMetadata", func(t *testing.T) { testRegisterMetadata(t, mk(t)) })
	t.Run("Await", func(t *testing.T) { testAwait(t, mk) })
}

func allTrue(flags []atomic.Bool) func() bool {
	return func() bool {
		for i := range flags {
			if !flags[i].Load() {
				return false
			}
		}
		return true
	}
}

// Every process can host a task; the task sees its own process ID and may
// take steps and finish.
func testSpawnStep(t *testing.T, h *Harness) {
	n := h.Sub.N()
	if n < 2 {
		t.Fatalf("conformance harness needs >= 2 processes, got %d", n)
	}
	ids := make([]atomic.Int64, n)
	done := make([]atomic.Bool, n)
	for p := 0; p < n; p++ {
		p := p
		h.Sub.Spawn(p, "conf-step", func(pp prim.Proc) {
			ids[p].Store(int64(pp.ID()))
			for i := 0; i < 64; i++ {
				pp.Step()
			}
			done[p].Store(true)
		})
	}
	if err := h.Run(allTrue(done)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if got := ids[p].Load(); got != int64(p) {
			t.Errorf("task spawned on process %d ran with ID %d", p, got)
		}
	}
}

// Atomic registers are read-your-writes within a task and visible across
// tasks: a reader polling with Step eventually observes the writer's
// final value.
func testRegisterHandoff(t *testing.T, h *Harness) {
	reg := prim.NewRegister[int64](h.Sub, "conf/handoff", 0)
	var ryw, got atomic.Int64
	var done atomic.Bool
	h.Sub.Spawn(1, "conf-reader", func(pp prim.Proc) {
		for {
			if v := reg.Read(); v == 42 {
				got.Store(v)
				done.Store(true)
				return
			}
			pp.Step()
		}
	})
	h.Sub.Spawn(0, "conf-writer", func(pp prim.Proc) {
		reg.Write(41)
		ryw.Store(reg.Read())
		pp.Step()
		reg.Write(42)
	})
	if err := h.Run(done.Load); err != nil {
		t.Fatal(err)
	}
	if v := ryw.Load(); v != 41 {
		t.Errorf("writer read back %d after writing 41", v)
	}
	if v := got.Load(); v != 42 {
		t.Errorf("reader handed off %d, want 42", v)
	}
}

// Solo operations on an abortable register never abort: aborts require an
// overlapping operation, and here a single task owns the register.
func testAbortableSolo(t *testing.T, h *Harness) {
	ab := prim.NewAbortable[int64](h.Sub, "conf/solo", 7)
	var writeOK, readOK, done atomic.Bool
	var readVal atomic.Int64
	h.Sub.Spawn(0, "conf-solo", func(pp prim.Proc) {
		writeOK.Store(ab.Write(11))
		pp.Step()
		if v, ok := ab.Read(); ok {
			readOK.Store(true)
			readVal.Store(v)
		}
		done.Store(true)
	})
	if err := h.Run(done.Load); err != nil {
		t.Fatal(err)
	}
	if !writeOK.Load() {
		t.Error("solo write aborted")
	}
	if !readOK.Load() {
		t.Error("solo read aborted")
	} else if v := readVal.Load(); v != 11 {
		t.Errorf("solo read returned %d, want 11", v)
	}
}

// Under NeverAbort every operation succeeds even when all processes hammer
// one register, and the register's abort counters stay zero.
func testAbortableNeverAbort(t *testing.T, h *Harness) {
	n := h.Sub.N()
	ab := prim.NewAbortable[int64](h.Sub, "conf/contend", 0,
		prim.WithAbortPolicy(prim.NeverAbort()))
	var aborts atomic.Int64
	done := make([]atomic.Bool, n)
	for p := 0; p < n; p++ {
		p := p
		h.Sub.Spawn(p, "conf-contend", func(pp prim.Proc) {
			for i := 0; i < 32; i++ {
				if !ab.Write(int64(p)) {
					aborts.Add(1)
				}
				if _, ok := ab.Read(); !ok {
					aborts.Add(1)
				}
				pp.Step()
			}
			done[p].Store(true)
		})
	}
	if err := h.Run(allTrue(done)); err != nil {
		t.Fatal(err)
	}
	if a := aborts.Load(); a != 0 {
		t.Errorf("%d operations aborted under NeverAbort", a)
	}
	st, ok := prim.RegisterStats(ab)
	if !ok {
		t.Fatal("abortable register exposes no stats")
	}
	if st.ReadAborts != 0 || st.WriteAborts != 0 {
		t.Errorf("abort counters %d/%d under NeverAbort", st.ReadAborts, st.WriteAborts)
	}
	if want := int64(32 * n); st.Writes < want {
		t.Errorf("register counted %d writes, want >= %d", st.Writes, want)
	}
}

// Crashing a process unwinds its tasks through the normal exit path:
// deferred cleanup runs, and surviving processes keep stepping.
func testCrashUnwinds(t *testing.T, h *Harness) {
	if h.Crash == nil {
		t.Skip("harness provides no crash injection")
	}
	var cleanup, ctlDone atomic.Bool
	h.Sub.Spawn(1, "conf-victim", func(pp prim.Proc) {
		defer cleanup.Store(true)
		for {
			pp.Step()
		}
	})
	h.Sub.Spawn(0, "conf-controller", func(pp prim.Proc) {
		for i := 0; i < 64; i++ {
			pp.Step()
		}
		h.Crash(1)
		for !cleanup.Load() {
			pp.Step()
		}
		ctlDone.Store(true)
	})
	if err := h.Run(func() bool { return cleanup.Load() && ctlDone.Load() }); err != nil {
		t.Fatal(err)
	}
	if !cleanup.Load() {
		t.Error("victim's deferred cleanup never ran")
	}
	if !ctlDone.Load() {
		t.Error("controller did not survive the other process's crash")
	}
}

// The type-erased factories preserve register names and operation
// counters, so telemetry reads the same on both substrates.
func testRegisterMetadata(t *testing.T, h *Harness) {
	reg := prim.NewRegister[int64](h.Sub, "conf/meta/atomic", 5)
	ab := prim.NewAbortable[int64](h.Sub, "conf/meta/abortable", 0)
	if got := prim.RegisterName(reg); got != "conf/meta/atomic" {
		t.Errorf("atomic register name %q", got)
	}
	if got := prim.RegisterName(ab); got != "conf/meta/abortable" {
		t.Errorf("abortable register name %q", got)
	}
	var done atomic.Bool
	h.Sub.Spawn(0, "conf-meta", func(pp prim.Proc) {
		_ = reg.Read()
		reg.Write(6)
		pp.Step()
		ab.Write(1)
		ab.Read()
		done.Store(true)
	})
	if err := h.Run(done.Load); err != nil {
		t.Fatal(err)
	}
	st, ok := prim.RegisterStats(reg)
	if !ok {
		t.Fatal("atomic register exposes no stats")
	}
	if st.Reads < 1 || st.Writes < 1 {
		t.Errorf("atomic register counted %d reads / %d writes, want >= 1 each", st.Reads, st.Writes)
	}
	ast, ok := prim.RegisterStats(ab)
	if !ok {
		t.Fatal("abortable register exposes no stats")
	}
	if ast.Reads < 1 || ast.Writes < 1 {
		t.Errorf("abortable register counted %d reads / %d writes, want >= 1 each", ast.Reads, ast.Writes)
	}
}

// awaitRounds is how many local-variable hand-offs the Await scenario
// makes; the setter's delay before each varies with the round.
const awaitRounds = 24

// spinAwait is the loop Var.Await replaces, written out by hand.
func spinAwait(x *prim.Var[int], p prim.Proc, ok func(int) bool) int {
	for !ok(x.Get()) {
		p.Step()
	}
	return x.Get()
}

// awaitScenario runs two tasks of process 0 handing a local variable back
// and forth — each waits with wait until the other has set the round
// number — beside a task of process 1 that keeps a shared clock register
// ticking. After every wait the waiter stamps the clock, so a wait that
// took even one step more or fewer shows in the stamps it returns.
func awaitScenario(t *testing.T, h *Harness, wait func(*prim.Var[int], prim.Proc, func(int) bool) int) []int64 {
	ping, pong := prim.NewVar(0), prim.NewVar(0)
	clock := prim.NewRegister[int64](h.Sub, "conf/await/clock", 0)
	stamps := make([]int64, 0, awaitRounds)
	var done, waiterDone atomic.Bool
	h.Sub.Spawn(1, "conf-await-clock", func(pp prim.Proc) {
		for i := int64(1); !done.Load(); i++ {
			clock.Write(i)
			pp.Step()
		}
	})
	h.Sub.Spawn(0, "conf-await-setter", func(pp prim.Proc) {
		for r := 1; r <= awaitRounds; r++ {
			for i := 0; i < r%5; i++ {
				pp.Step()
			}
			ping.Set(r)
			wait(pong, pp, func(v int) bool { return v == r })
		}
	})
	h.Sub.Spawn(0, "conf-await-waiter", func(pp prim.Proc) {
		for r := 1; r <= awaitRounds; r++ {
			if got := wait(ping, pp, func(v int) bool { return v >= r }); got != r {
				t.Errorf("round %d: wait returned %d", r, got)
			}
			stamps = append(stamps, clock.Read())
			pong.Set(r)
		}
		waiterDone.Store(true)
	})
	if err := h.Run(waiterDone.Load); err != nil {
		t.Fatal(err)
	}
	done.Store(true)
	return stamps
}

// Var.Await returns the first satisfying value and wakes on every Set it
// must see. Where runs repeat exactly it is indistinguishable from the
// hand-written "while ¬ok(x) do skip": same clock stamps, same trace hash.
func testAwait(t *testing.T, mk func(t *testing.T) *Harness) {
	h := mk(t)
	stamps := awaitScenario(t, h, (*prim.Var[int]).Await)
	if len(stamps) != awaitRounds {
		t.Fatalf("waiter completed %d of %d rounds", len(stamps), awaitRounds)
	}
	if h.TraceHash == nil {
		return
	}
	hash := h.TraceHash()
	hs := mk(t)
	spinStamps := awaitScenario(t, hs, spinAwait)
	if spinHash := hs.TraceHash(); hash != spinHash {
		t.Errorf("trace hash %s with Var.Await, %s with the hand-written loop", hash, spinHash)
	}
	for i := range stamps {
		if stamps[i] != spinStamps[i] {
			t.Fatalf("round %d: clock read %d after Var.Await, %d after the hand-written loop", i+1, stamps[i], spinStamps[i])
		}
	}
}
