package sim

import "math/rand"

// Schedule decides which process takes each step of a run. It is the
// adversary/scheduler of the paper's model: timeliness (Definitions 1 and 2)
// is entirely a property of the step sequence a Schedule produces.
//
// Next is called with the step number and the set of schedulable processes
// (alive, with at least one unfinished task; non-empty, ascending). It must
// return a member of alive; if it does not, the kernel falls back to
// round-robin and counts a schedule miss.
type Schedule interface {
	Next(step int64, alive []int) int
}

// ScheduleFunc adapts a function to the Schedule interface.
type ScheduleFunc func(step int64, alive []int) int

// Next implements Schedule.
func (f ScheduleFunc) Next(step int64, alive []int) int { return f(step, alive) }

// RoundRobin returns a schedule that cycles fairly through the alive
// processes. Under it, every correct process is timely with bound n.
func RoundRobin() Schedule {
	last := -1
	return ScheduleFunc(func(step int64, alive []int) int {
		// Pick the smallest alive id strictly greater than last,
		// wrapping around.
		pick := -1
		for _, p := range alive {
			if p > last {
				pick = p
				break
			}
		}
		if pick == -1 {
			pick = alive[0]
		}
		last = pick
		return pick
	})
}

// Pattern returns a schedule that repeats seq forever. If the preferred
// process is not schedulable at some step, the next alive process at or
// after it (cyclically by id) is chosen instead: when every alive id is
// below the preferred one, the choice wraps around to the smallest alive
// id, wherever it sits in the alive slice.
func Pattern(seq ...int) Schedule {
	if len(seq) == 0 {
		return RoundRobin()
	}
	pattern := append([]int(nil), seq...)
	var i int
	return ScheduleFunc(func(step int64, alive []int) int {
		want := pattern[i%len(pattern)]
		i++
		for _, p := range alive {
			if p >= want {
				return p
			}
		}
		// Cyclic wrap: no alive id is at or after want, so take the
		// smallest alive id explicitly rather than assuming alive[0] is it.
		min := alive[0]
		for _, p := range alive[1:] {
			if p < min {
				min = p
			}
		}
		return min
	})
}

// SmoothWeighted returns a schedule giving process p a share of steps
// proportional to weights[p], interleaved smoothly (the classic smooth
// weighted round-robin). Processes with weight zero or beyond the weights
// slice are scheduled only if no weighted process is alive. A timely process
// is one with a positive weight: its inter-step gap is bounded by roughly
// total/weight.
func SmoothWeighted(weights []int) Schedule {
	w := append([]int(nil), weights...)
	cur := make(map[int]int)
	return ScheduleFunc(func(step int64, alive []int) int {
		total := 0
		best := -1
		for _, p := range alive {
			wp := 0
			if p < len(w) {
				wp = w[p]
			}
			if wp <= 0 {
				continue
			}
			total += wp
			cur[p] += wp
			if best == -1 || cur[p] > cur[best] {
				best = p
			}
		}
		if best == -1 {
			return alive[int(step)%len(alive)]
		}
		cur[best] -= total
		return best
	})
}

// Seeded is implemented by schedules derived from a seed. Frontends use it
// to surface the seed in their output so any run is reproducible.
type Seeded interface {
	Seed() int64
}

// RandomSchedule is a seeded random schedule; see Random.
type RandomSchedule struct {
	seed int64
	w    []float64
	rng  *rand.Rand
}

// Random returns a seeded random schedule: each step picks an alive process
// with probability proportional to weights[p] (weight 1 for processes
// beyond the slice, minimum 0). Deterministic for a given seed.
func Random(seed int64, weights []float64) *RandomSchedule {
	return &RandomSchedule{
		seed: seed,
		w:    append([]float64(nil), weights...),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Seed returns the seed the schedule was built from.
func (s *RandomSchedule) Seed() int64 { return s.seed }

// Next implements Schedule.
func (s *RandomSchedule) Next(step int64, alive []int) int {
	total := 0.0
	for _, p := range alive {
		total += weightOf(s.w, p)
	}
	if total <= 0 {
		return alive[s.rng.Intn(len(alive))]
	}
	x := s.rng.Float64() * total
	for _, p := range alive {
		x -= weightOf(s.w, p)
		if x < 0 {
			return p
		}
	}
	return alive[len(alive)-1]
}

func weightOf(w []float64, p int) float64 {
	if p < len(w) {
		if w[p] < 0 {
			return 0
		}
		return w[p]
	}
	return 1
}

// Availability tells, per step, whether a process may be scheduled. It is
// how runs shape (un)timeliness: a process that is always available under a
// fair base schedule is timely; one whose unavailable stretches grow without
// bound is not.
type Availability func(step int64) bool

// Always is an Availability that never suppresses the process.
func Always(step int64) bool { return true }

// Flicker returns an Availability that alternates on for onSteps and off
// for offSteps, starting at phase. Note that a flickering process is still
// *timely* in the formal sense (its gaps are bounded by offSteps plus the
// scheduling gap); use GrowingGaps for a genuinely untimely process.
func Flicker(onSteps, offSteps, phase int64) Availability {
	period := onSteps + offSteps
	if period <= 0 {
		return Always
	}
	return func(step int64) bool {
		return (step+phase)%period < onSteps
	}
}

// GrowingGaps returns an Availability whose off-periods grow geometrically:
// on for onSteps, off for firstGap, on for onSteps, off for firstGap*factor,
// and so on. Because the gaps grow without bound, the process is untimely
// (Definition 2 fails for every bound i) while still being correct — the
// paper's "flickering" process whose speed fluctuates forever.
func GrowingGaps(onSteps, firstGap int64, factor float64) Availability {
	if onSteps <= 0 {
		onSteps = 1
	}
	if firstGap <= 0 {
		firstGap = 1
	}
	if factor < 1 {
		factor = 1
	}
	// Precompute cycle boundaries lazily.
	type cycle struct{ start, onEnd, end int64 }
	cycles := []cycle{{0, onSteps, onSteps + firstGap}}
	gap := float64(firstGap)
	return func(step int64) bool {
		for step >= cycles[len(cycles)-1].end {
			gap *= factor
			last := cycles[len(cycles)-1]
			start := last.end
			cycles = append(cycles, cycle{start, start + onSteps, start + onSteps + int64(gap)})
		}
		// Binary search not needed: steps are queried in order almost
		// always; scan from the back.
		for i := len(cycles) - 1; i >= 0; i-- {
			c := cycles[i]
			if step >= c.start {
				return step < c.onEnd
			}
		}
		return true
	}
}

// Restrict wraps base so that processes whose Availability reports false at
// a step are not offered to it. If every alive process is suppressed, the
// restriction is ignored for that step (time does not stop).
func Restrict(base Schedule, avail map[int]Availability) Schedule {
	return ScheduleFunc(func(step int64, alive []int) int {
		filtered := make([]int, 0, len(alive))
		for _, p := range alive {
			if fn, ok := avail[p]; ok && !fn(step) {
				continue
			}
			filtered = append(filtered, p)
		}
		if len(filtered) == 0 {
			filtered = alive
		}
		return base.Next(step, filtered)
	})
}

// SoloAfter wraps base so that from step fromStep on, only process proc is
// scheduled (while it is alive). It builds the obstruction-freedom scenario
// of Section 1.1: a process that eventually runs solo is timely by
// definition, however slow it is in real time.
func SoloAfter(base Schedule, proc int, fromStep int64) Schedule {
	return ScheduleFunc(func(step int64, alive []int) int {
		if step >= fromStep && contains(alive, proc) {
			return proc
		}
		return base.Next(step, alive)
	})
}
