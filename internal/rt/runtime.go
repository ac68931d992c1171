// Package rt is the real-time substrate: it runs the same algorithm code
// as the simulation kernel (internal/sim) on plain goroutines, with
// genuinely concurrent registers and wall-clock pacing instead of a
// step-sequencing scheduler.
//
// Timeliness is shaped by per-process pacing profiles: every call to
// Proc.Step consults the process's Gate, which may sleep. A process with a
// steady (or zero) pace is timely relative to the others; a process whose
// gaps grow without bound is the paper's untimely "flickering" process.
// The examples use this substrate to show the TBWF stack working live;
// tests and benchmarks use internal/sim, where runs are deterministic and
// timeliness is measured exactly.
package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tbwf/internal/prim"
)

// Profile maps a process's step number to the delay taken at that step.
// Profiles may keep internal state; each process gets its own instance.
// A nil Profile means "no delay": the gate takes its zero-cost fast path
// (atomic step bump + Gosched) without ever locking or calling a func.
type Profile func(step int64) time.Duration

// Steady returns a profile with a constant delay per step. A non-positive
// delay returns nil — the canonical timely profile — so a zero pace rides
// the gate's fast path instead of paying a profile call per step.
func Steady(d time.Duration) Profile {
	if d <= 0 {
		return nil
	}
	return func(int64) time.Duration { return d }
}

// GrowingGaps returns a profile that runs burst steps at full speed, then
// pauses for a gap that grows geometrically: a correct but untimely
// process (its gaps exceed any fixed bound).
func GrowingGaps(burst int64, firstGap time.Duration, factor float64) Profile {
	if burst <= 0 {
		burst = 1
	}
	if factor < 1 {
		factor = 1
	}
	gap := firstGap
	var inBurst int64
	return func(int64) time.Duration {
		inBurst++
		if inBurst >= burst {
			inBurst = 0
			d := gap
			gap = time.Duration(float64(gap) * factor)
			return d
		}
		return 0
	}
}

// Gate paces one process and carries its crash/stop state. All of a
// process's task goroutines share one gate, and profiles may keep internal
// state, so profile invocation is serialized (the sleep itself is not —
// only the task that drew the gap sleeps, mirroring how a single slow task
// does not freeze its siblings mid-call).
//
// Parking protocol: a task that drew a positive gap parks on a pooled
// timer, selecting against the runtime's stopCh and the gate's wake
// channel. SetProfile and Crash close-and-replace wake, so Stop, a crash,
// and a live profile retune all interrupt a parked task immediately — a
// process deep in a grown gap reacts to /v1/fault now, not when its old
// gap expires. A retuned task re-draws its gap from the new profile.
//
// The zero-delay fast path: when the profile is nil the gate never takes
// mu at all — pace is the crash/stop loads, the telemetry fold, an atomic
// step bump, and a Gosched.
//
// Event waits: a task that has waited on a prim.Var or an mpsc.Queue for
// prim.LingerWindow parks in park (prim.Parker) on its own wake channel
// instead of spinning on through pace, selecting against the same stopCh
// and wake, so Stop, Crash and SetProfile interrupt it exactly as they
// interrupt a gap. The gate counts its live and parked tasks to tell an
// idle process from a slow one.
type Gate struct {
	zero    atomic.Bool // profile == nil: take the fast path
	mu      sync.Mutex  // guards profile invocation and wake rotation
	profile Profile
	wake    chan struct{} // closed+replaced by SetProfile/Crash; wakes parked tasks
	step    atomic.Int64
	crashed atomic.Bool
	stopped *atomic.Bool  // the runtime's stop flag, shared
	stopCh  chan struct{} // closed by Stop; interrupts in-progress gap sleeps

	// Step-gap telemetry, updated on every pace. Gaps are wall-clock
	// nanoseconds between consecutive steps of the process (any of its
	// tasks), the live analogue of the paper's scheduling gaps.
	lastStepNS atomic.Int64 // UnixNano of the latest step; 0 before the first
	maxGapNS   atomic.Int64
	ewmaGapNS  atomic.Int64 // exponentially weighted moving average, α=1/16

	tasks  atomic.Int32 // live tasks of the process
	parked atomic.Int32 // of those, parked in an event wait
	// idled is set when the process's last running task parks or exits:
	// the stretch up to its next step is idleness (no work), not a
	// scheduling gap, and observeGap leaves it out of the telemetry.
	idled atomic.Bool
}

// timerPool recycles parking timers across all gates, so steady-state
// paced stepping allocates no timer or channel per gap.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer, fired bool) {
	if !fired && !t.Stop() {
		// The timer fired while we were being woken some other way; drain
		// so the next Reset starts from a clean channel.
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

func (g *Gate) pace() {
	if g.stopped.Load() {
		prim.ExitTask("runtime stopped")
	}
	if g.crashed.Load() {
		prim.ExitTask("process crashed")
	}
	g.observeGap(time.Now().UnixNano())
	step := g.step.Add(1)
	if g.zero.Load() {
		runtime.Gosched()
		return
	}
	g.mu.Lock()
	var d time.Duration
	if g.profile != nil {
		d = g.profile(step)
	}
	wake := g.wake
	g.mu.Unlock()
	for d > 0 {
		t := getTimer(d)
		select {
		case <-t.C:
			putTimer(t, true)
			return
		case <-g.stopCh:
			putTimer(t, false)
			prim.ExitTask("runtime stopped")
		case <-wake:
			putTimer(t, false)
			// Woken early: either the process crashed or its profile was
			// retuned. Re-check, then re-draw the gap from the (possibly
			// new) profile rather than serving out the stale one.
			if g.crashed.Load() {
				prim.ExitTask("process crashed")
			}
			g.mu.Lock()
			if g.profile == nil {
				d = 0
			} else {
				d = g.profile(step)
			}
			wake = g.wake
			g.mu.Unlock()
		}
	}
	runtime.Gosched()
}

// observeGap folds one inter-step gap into the gate's telemetry. Both
// folds are CAS loops: concurrent tasks of one process pace through the
// same gate, and a plain load/store read-modify-write would lose updates.
func (g *Gate) observeGap(now int64) {
	prev := g.lastStepNS.Swap(now)
	if g.idled.Load() {
		// First step after a whole-process park: re-arm only. A wake while
		// a sibling was running does not come here, so its gap still counts.
		g.idled.Store(false)
		return
	}
	g.foldGap(now-prev, prev)
}

// foldGap folds the gap that followed the step at prev into the telemetry.
func (g *Gate) foldGap(gap, prev int64) {
	if prev == 0 || gap <= 0 {
		return
	}
	for {
		max := g.maxGapNS.Load()
		if gap <= max || g.maxGapNS.CompareAndSwap(max, gap) {
			break
		}
	}
	for {
		old := g.ewmaGapNS.Load()
		next := old + (gap-old)/16
		if next == old || g.ewmaGapNS.CompareAndSwap(old, next) {
			break
		}
	}
}

// park blocks the calling task until hint receives, the runtime stops, or
// the gate is interrupted (crash, retune). It takes no step and never
// exits the task itself: the caller's next pace does both.
func (g *Gate) park(hint <-chan struct{}) {
	g.mu.Lock()
	wake := g.wake
	g.mu.Unlock()
	// Crash and Stop raise their flag before they signal, so a signal that
	// fired before wake was read above shows here.
	if g.crashed.Load() || g.stopped.Load() {
		return
	}
	g.parked.Add(1)
	g.noteIdle()
	select {
	case <-hint:
	case <-g.stopCh:
	case <-wake:
	}
	g.parked.Add(-1)
}

// noteIdle marks the process idle if none of its tasks is left running.
// The stretch since the latest step is folded in first: pace serves a
// step's gap after observing it, so the pause of the last step before a
// whole-process park would otherwise be lost with the idleness after it.
func (g *Gate) noteIdle() {
	if g.parked.Load() >= g.tasks.Load() && g.idled.CompareAndSwap(false, true) {
		prev := g.lastStepNS.Load()
		g.foldGap(time.Now().UnixNano()-prev, prev)
	}
}

// interrupt wakes every task currently parked on this gate. Callers must
// hold g.mu.
func (g *Gate) interrupt() {
	close(g.wake)
	g.wake = make(chan struct{})
}

// Runtime hosts n processes as goroutine groups.
type Runtime struct {
	n        int
	gates    []*Gate
	stopped  atomic.Bool
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu  sync.Mutex
	err error
}

var _ prim.Spawner = (*Runtime)(nil)

// New creates a runtime for n processes, all with the given default
// profile (nil means Steady(0)). Use SetProfile to differentiate before
// spawning.
func New(n int, def Profile) *Runtime {
	r := &Runtime{n: n, gates: make([]*Gate, n), stopCh: make(chan struct{})}
	for p := 0; p < n; p++ {
		g := &Gate{profile: def, stopped: &r.stopped, stopCh: r.stopCh, wake: make(chan struct{})}
		g.zero.Store(def == nil)
		r.gates[p] = g
	}
	return r
}

// N returns the number of processes.
func (r *Runtime) N() int { return r.n }

// SetProfile replaces process p's pacing profile (nil means no delay). It
// may be called while tasks are running (e.g. to degrade or heal a process
// mid-run); tasks parked inside a gap wake immediately and re-draw their
// delay from the new profile.
func (r *Runtime) SetProfile(p int, prof Profile) {
	g := r.gates[p]
	g.mu.Lock()
	g.profile = prof
	g.zero.Store(prof == nil)
	g.interrupt()
	g.mu.Unlock()
}

// Crash crashes process p: its tasks exit at their next step, and tasks
// parked inside a gap exit now instead of sleeping out the remainder.
func (r *Runtime) Crash(p int) {
	g := r.gates[p]
	g.crashed.Store(true)
	g.mu.Lock()
	g.interrupt()
	g.mu.Unlock()
}

// proc implements prim.Proc and prim.Parker for one task of one process.
type proc struct {
	id   int
	gate *Gate
	wake chan struct{} // capacity 1: the task's wake-up hints
}

func (p proc) ID() int                { return p.id }
func (p proc) Step()                  { p.gate.pace() }
func (p proc) Waker() chan<- struct{} { return p.wake }
func (p proc) Linger() time.Duration  { return prim.LingerWindow }
func (p proc) Park() {
	p.gate.park(p.wake)
	p.gate.pace()
}

// Spawn starts a task on process pr. It implements prim.Spawner.
func (r *Runtime) Spawn(pr int, name string, fn func(p prim.Proc)) {
	if pr < 0 || pr >= r.n {
		panic(fmt.Sprintf("rt: Spawn: process %d out of range [0,%d)", pr, r.n))
	}
	r.wg.Add(1)
	gate := r.gates[pr]
	gate.tasks.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() {
			gate.tasks.Add(-1)
			gate.noteIdle()
			if rec := recover(); rec != nil && !prim.RecoverTaskExit(rec) {
				r.mu.Lock()
				if r.err == nil {
					r.err = fmt.Errorf("rt: process %d task %q panicked: %v", pr, name, rec)
				}
				r.mu.Unlock()
			}
		}()
		fn(proc{id: pr, gate: gate, wake: make(chan struct{}, 1)})
	}()
}

// Stop asks every task to exit at its next step (interrupting any
// in-progress gap sleep) and waits for them. It returns the first task
// panic, if any. Stop is idempotent: a second call only re-reads the
// error.
func (r *Runtime) Stop() error {
	r.stopOnce.Do(func() {
		r.stopped.Store(true)
		close(r.stopCh)
	})
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Stopping returns a channel closed when Stop is first called. Service
// code whose tasks block on their own channels (rather than in Step)
// selects on it to exit promptly.
func (r *Runtime) Stopping() <-chan struct{} { return r.stopCh }

// StepOf returns how many steps process p has taken — a rough liveness
// indicator for demos.
func (r *Runtime) StepOf(p int) int64 { return r.gates[p].step.Load() }

// ProcStats is a live snapshot of one process's pacing telemetry.
type ProcStats struct {
	// Steps is the number of steps the process has taken.
	Steps int64
	// MaxGap is the largest wall-clock gap observed between two
	// consecutive steps; AvgGap is an EWMA (α=1/16) of the same series.
	MaxGap, AvgGap time.Duration
	// SinceLastStep is the time elapsed since the latest step (0 if the
	// process has not stepped yet) — a growing value flags a process that
	// is currently inside a gap.
	SinceLastStep time.Duration
	// Crashed reports whether the process was crashed.
	Crashed bool
	// Parked is how many of the process's tasks are parked in an event
	// wait (prim.Var.Await, mpsc.Queue.Await). Idle reports that all of
	// them are: the process has no work, and a growing SinceLastStep is
	// then not a gap. Idle stretches are left out of MaxGap and AvgGap.
	Parked int
	Idle   bool
}

// ProcStats returns process p's step-gap telemetry. Safe to call from any
// goroutine while the runtime runs.
func (r *Runtime) ProcStats(p int) ProcStats {
	g := r.gates[p]
	s := ProcStats{
		Steps:   g.step.Load(),
		MaxGap:  time.Duration(g.maxGapNS.Load()),
		AvgGap:  time.Duration(g.ewmaGapNS.Load()),
		Crashed: g.crashed.Load(),
		Parked:  int(g.parked.Load()),
	}
	s.Idle = s.Parked > 0 && s.Parked >= int(g.tasks.Load())
	if last := g.lastStepNS.Load(); last > 0 {
		if d := time.Now().UnixNano() - last; d > 0 {
			s.SinceLastStep = time.Duration(d)
		}
	}
	return s
}
