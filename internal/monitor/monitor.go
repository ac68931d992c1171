// Package monitor implements the paper's dynamic activity monitors
// (Section 5.1, Figures 1 and 2).
//
// For an ordered pair of processes (p, q), the activity monitor A(p,q)
// helps p determine whether q is currently active for p and whether q is
// p-timely. It is fully dynamic: p turns monitoring on and off through the
// local input variable monitoring_p[q], and q turns its participation on
// and off through active-for_q[p]. The monitor's outputs at p are
// status_p[q] ∈ {active, inactive, ?} and faultCntr_p[q], the number of
// times q was suspected of not being p-timely (Definition 9 lists the six
// properties these outputs satisfy; monitor tests verify them).
//
// The implementation is Figure 2, line for line: q writes an increasing
// heartbeat counter to a shared register while it is active for p, and -1
// when it stops willingly; p reads the register on an adaptive timeout
// (measured in p's own steps, so "time" is relative to process speed
// exactly as in the partial-synchrony model) and gates faultCntr increments
// so that the counter stays bounded when q is p-timely, crashes, or stops
// being active for p.
package monitor

import "tbwf/internal/prim"

// Status is the monitor's estimate of the monitored process's state:
// the paper's status_p[q] ∈ {?, active, inactive}.
type Status int

const (
	// StatusUnknown is the paper's "?" output: the monitor offers no
	// estimate (monitoring is off, or no estimate has been computed yet).
	StatusUnknown Status = iota
	// StatusActive estimates that q is currently active for p.
	StatusActive
	// StatusInactive estimates that q is currently inactive for p.
	StatusInactive
)

// String returns the paper's notation for the status.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusInactive:
		return "inactive"
	default:
		return "?"
	}
}

// stoppedHeartbeat is the special value −1 that q writes to announce it is
// stopping willingly (as opposed to crashing).
const stoppedHeartbeat int64 = -1

// Pair is one activity monitor A(p,q) for a fixed ordered pair of
// processes: the shared heartbeat register plus the four local variables of
// Figure 1. Create it with NewPair, then spawn MonitoredTask on process q
// and MonitoringTask on process p.
type Pair struct {
	// P is the monitoring process; Q the monitored one.
	P, Q int

	// Monitoring is A(p,q)'s input at p: does p want to monitor q?
	Monitoring *prim.Var[bool]
	// ActiveFor is A(p,q)'s input at q: is q active for p?
	ActiveFor *prim.Var[bool]

	// Status is A(p,q)'s first output at p: the estimate of q's status.
	Status *prim.Var[Status]
	// FaultCntr is A(p,q)'s second output at p: how many times q was
	// suspected of not being p-timely.
	FaultCntr *prim.Var[int64]

	// Hb is the shared register HbRegister[q,p], written by q and read
	// by p.
	Hb prim.Register[int64]

	// ablateFaultGate disables the allow-increment gating of Figure 2
	// (lines 18–26); see AblateFaultGate.
	ablateFaultGate bool
}

// NewPair wires an activity monitor A(p,q) over the given heartbeat
// register (initialized to −1 by convention, matching Figure 2's initial
// state).
func NewPair(p, q int, hb prim.Register[int64]) *Pair {
	return &Pair{
		P:          p,
		Q:          q,
		Monitoring: prim.NewVar(false),
		ActiveFor:  prim.NewVar(false),
		Status:     prim.NewVar(StatusUnknown),
		FaultCntr:  prim.NewVar[int64](0),
		Hb:         hb,
	}
}

// Telemetry is a consistent-enough snapshot of one monitor's outputs for
// dashboards and metrics endpoints.
type Telemetry struct {
	// P monitors Q.
	P, Q int
	// Status is the current estimate of Q's state at P.
	Status Status
	// FaultCntr is the number of times Q was suspected of not being
	// P-timely.
	FaultCntr int64
}

// Telemetry returns the monitor's current outputs. A read-only tap: it
// consumes no process steps and may be called from any goroutine.
func (m *Pair) Telemetry() Telemetry {
	return Telemetry{P: m.P, Q: m.Q, Status: m.Status.Get(), FaultCntr: m.FaultCntr.Get()}
}

// AblateFaultGate removes the allow-increment gating of Figure 2: every
// suspicion then bumps faultCntr, so a crashed q is charged over and over
// instead of at most once (Definition 9, Property 5b fails). Ablation for
// tests and the schedule-space fuzzer only; call before spawning the
// monitoring task.
func (m *Pair) AblateFaultGate() { m.ablateFaultGate = true }

// MonitoredTask returns the task to run on process q: the top half of
// Figure 2. While active-for_q[p] is on, it writes an increasing heartbeat
// counter; when it turns off, it writes −1 once to signal a willing stop
// and then waits.
func (m *Pair) MonitoredTask() func(prim.Proc) {
	return func(p prim.Proc) {
		var hbCounter int64
		for { // repeat forever
			m.Hb.Write(stoppedHeartbeat)      // line 2
			m.ActiveFor.Await(p, prim.IsTrue) // line 3: while off do skip

			for m.ActiveFor.Get() { // line 4
				hbCounter++ // line 5: the increment is a state-change step
				p.Step()
				m.Hb.Write(hbCounter) // line 6
			}
		}
	}
}

// MonitoringTask returns the task to run on process p: the bottom half of
// Figure 2. It polls the heartbeat register every hbTimeout of its own
// loop iterations; hbTimeout adapts upward each time q is suspected, and
// the allow-increment flag implements the two gating conditions of the
// paper: faultCntr is bumped only when the register is not −1 (so a
// willingly stopping q does not count as untimely — Property 5c) and only
// if the counter increased since the last bump (so a crashed q is charged
// at most once — Property 5b).
func (m *Pair) MonitoringTask() func(prim.Proc) {
	return func(p prim.Proc) {
		var (
			hbTimeout      int64 = 1
			hbTimer        int64 = 1
			hbCounter      int64
			prevHbCounter  int64
			allowIncrement = true
		)
		for { // line 7: repeat forever
			m.Status.Set(StatusUnknown)        // line 8
			m.Monitoring.Await(p, prim.IsTrue) // line 9: while off do skip
			hbTimer = hbTimeout                // line 10

			for m.Monitoring.Get() { // line 11
				if hbTimer >= 1 { // line 12
					hbTimer--
				}
				if hbTimer == 0 { // line 13
					hbTimer = hbTimeout       // line 14
					prevHbCounter = hbCounter // line 15
					hbCounter = m.Hb.Read()   // line 16
					switch {
					case hbCounter < 0: // line 17
						m.Status.Set(StatusInactive)
					case hbCounter > prevHbCounter: // lines 18–20
						m.Status.Set(StatusActive)
						allowIncrement = true
					default: // lines 21–26: hbCounter >= 0 && <= prev
						m.Status.Set(StatusInactive)
						if allowIncrement || m.ablateFaultGate {
							m.FaultCntr.Set(m.FaultCntr.Get() + 1)
							hbTimeout++
							allowIncrement = false
						}
					}
				}
				p.Step() // one loop iteration = one step
			}
		}
	}
}
