package explore

import (
	"math/rand"

	"tbwf/internal/adversary"
	"tbwf/internal/net"
	"tbwf/internal/sim"
)

// This file is the scheduling half of the engine: plan-driven schedules
// whose every choice is either pinned by the plan's prefix or derived
// deterministically from the seed. The kernel's schedule trace records
// what actually executed, and that record becomes the next plan's prefix —
// the recording/replay loop the artifacts are built on.

// maxPreemptions bounds the context switches a pbound schedule performs.
const maxPreemptions = 8

// planSchedule serves the plan's explicit prefix first and delegates to
// the seed-derived strategy schedule past it. Prefix holes (-1) and
// entries naming a process that is not currently schedulable fall back to
// a stateless step-indexed rotation over the alive set, so a mutated
// prefix still yields a deterministic run.
type planSchedule struct {
	prefix []int32
	base   sim.Schedule
}

func newPlanSchedule(p Plan, steps int64) *planSchedule {
	return &planSchedule{
		prefix: p.Prefix,
		base:   newStrategySchedule(p, mix(p.Seed, streamSchedule), steps),
	}
}

// Next implements sim.Schedule.
func (s *planSchedule) Next(step int64, alive []int) int {
	if step < int64(len(s.prefix)) {
		if want := int(s.prefix[step]); want >= 0 {
			for _, p := range alive {
				if p == want {
					return p
				}
			}
		}
		return alive[int(step)%len(alive)]
	}
	return s.base.Next(step, alive)
}

// newStrategySchedule builds the seeded base schedule for a plan's
// strategy. The alive-set size is discovered at the first Next call, so
// the same schedule value works for any target. Execute normalizes the
// plan before this runs, so a dls plan always carries its policy.
func newStrategySchedule(p Plan, seed, steps int64) sim.Schedule {
	switch p.Strategy {
	case StrategyPattern:
		return newPatternSchedule(seed)
	case StrategyPBound:
		return newSegmentSchedule(seed, steps)
	case StrategyDLS:
		d := adversary.DLS{Phi: 1}
		if p.DLS != nil {
			d = *p.DLS
		}
		return adversary.NewSchedule(d, seed)
	default:
		return sim.Random(seed, nil)
	}
}

// patternSchedule repeats a short seed-derived pattern over the process
// ids it sees alive. Half the time the pattern is a permutation of the
// alive set — strict alternations and rotations, the phase-locking
// adversaries — and otherwise a uniform random digit string.
type patternSchedule struct {
	rng *rand.Rand
	pat []int
	i   int
}

func newPatternSchedule(seed int64) *patternSchedule {
	return &patternSchedule{rng: rand.New(rand.NewSource(seed))}
}

// Next implements sim.Schedule.
func (s *patternSchedule) Next(step int64, alive []int) int {
	if s.pat == nil {
		if s.rng.Float64() < 0.5 {
			// A random permutation of the ids alive right now.
			s.pat = append(s.pat, alive...)
			s.rng.Shuffle(len(s.pat), func(i, j int) { s.pat[i], s.pat[j] = s.pat[j], s.pat[i] })
		} else {
			l := 2 + s.rng.Intn(4)
			for i := 0; i < l; i++ {
				s.pat = append(s.pat, alive[s.rng.Intn(len(alive))])
			}
		}
	}
	want := s.pat[s.i%len(s.pat)]
	s.i++
	return nextAliveAtOrAfter(alive, want)
}

// segmentSchedule divides the run into at most maxPreemptions+1 contiguous
// segments, each owned by one seed-chosen process: schedules with very few
// context switches, which starve everyone but the owner for long
// stretches.
type segmentSchedule struct {
	rng    *rand.Rand
	bounds []int64 // ascending segment end steps; last is the budget
	owners []int
}

func newSegmentSchedule(seed, steps int64) *segmentSchedule {
	s := &segmentSchedule{rng: rand.New(rand.NewSource(seed))}
	if steps < 1 {
		steps = 1
	}
	segments := 2 + s.rng.Intn(maxPreemptions)
	for i := 0; i < segments-1; i++ {
		s.bounds = append(s.bounds, s.rng.Int63n(steps))
	}
	s.bounds = append(s.bounds, steps)
	sortInt64s(s.bounds)
	return s
}

// Next implements sim.Schedule.
func (s *segmentSchedule) Next(step int64, alive []int) int {
	seg := 0
	for seg < len(s.bounds)-1 && step >= s.bounds[seg] {
		seg++
	}
	// Owners are drawn lazily at first use so the process-id range adapts
	// to whatever alive set the target has.
	for len(s.owners) <= seg {
		s.owners = append(s.owners, alive[s.rng.Intn(len(alive))])
	}
	return nextAliveAtOrAfter(alive, s.owners[seg])
}

// nextAliveAtOrAfter picks the smallest alive id at or after want, wrapping
// cyclically to the smallest alive id.
func nextAliveAtOrAfter(alive []int, want int) int {
	best, min := -1, alive[0]
	for _, p := range alive {
		if p < min {
			min = p
		}
		if p >= want && (best == -1 || p < best) {
			best = p
		}
	}
	if best != -1 {
		return best
	}
	return min
}

func sortInt64s(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// NewPlan generates a fresh exploration plan for a target from a seed:
// strategy, crash set, and (empty) tape, all derived deterministically.
// budget overrides the target's default step budget when positive.
func NewPlan(tgt Target, seed, budget int64) Plan {
	steps := budget
	if steps <= 0 {
		steps = tgt.Steps
	}
	rng := rand.New(rand.NewSource(mix(seed, streamGen)))
	strategies := tgt.Strategies
	if len(strategies) == 0 {
		strategies = []Strategy{StrategyWalk, StrategyPattern, StrategyPBound, StrategyDLS}
	}
	p := Plan{
		Target:   tgt.Name,
		Seed:     seed,
		Steps:    steps,
		Strategy: strategies[rng.Intn(len(strategies))],
	}
	if p.Strategy == StrategyDLS {
		// Pin the (Φ,Δ) point explicitly so the plan documents it (and the
		// shrinker can relax it); same conservative caps as defaultDLS.
		d := adversary.DLS{Phi: 1 + rng.Int63n(8), Delta: rng.Int63n(17)}
		p.DLS = &d
	}
	for _, proc := range tgt.MustCrash {
		// The target wants this process crashed in every run (its oracle is
		// about crash handling); land the crash in the second quarter so
		// there is run left to observe.
		at := steps/4 + rng.Int63n(maxInt64(steps/4, 1))
		p.Crashes = append(p.Crashes, Crash{Proc: proc, Step: at})
	}
	if !tgt.NoCrashes && rng.Float64() < 0.25 {
		p.Crashes = append(p.Crashes, Crash{Proc: rng.Intn(tgt.N), Step: rng.Int63n(steps)})
	}
	if tgt.Partitions {
		// A majority-preserving cut in the second quarter — one process is
		// isolated from the rest — healed within a quarter, so quorum
		// operations stall, retransmit, and must still linearize.
		iso := rng.Intn(tgt.N)
		rest := make([]int, 0, tgt.N-1)
		for q := 0; q < tgt.N; q++ {
			if q != iso {
				rest = append(rest, q)
			}
		}
		cut := steps/4 + rng.Int63n(maxInt64(steps/4, 1))
		heal := cut + 1 + rng.Int63n(maxInt64(steps/4, 1))
		p.Partitions = []net.PartitionEvent{
			{Step: cut, Groups: [][]int{rest, {iso}}},
			{Step: heal},
		}
	}
	return p
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
