package exp

import (
	"fmt"

	"tbwf/internal/deploy"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/sim"
)

// CounterStack is the concrete TBWF stack type used across experiments: a
// shared fetch-and-add counter.
type CounterStack = deploy.Stack[int64, objtype.CounterOp, int64]

// BuildCounterStack builds a TBWF counter stack on k.
func BuildCounterStack(k *sim.Kernel, cfg deploy.BuildConfig) (*CounterStack, error) {
	return deploy.Build[int64, objtype.CounterOp, int64](deploy.Sim(k), objtype.Counter{}, cfg)
}

// SpawnHammers gives every process a task that invokes Add(1) through its
// TBWF client forever.
func SpawnHammers(k *sim.Kernel, st *CounterStack) {
	for p := 0; p < k.N(); p++ {
		p := p
		k.Spawn(p, fmt.Sprintf("client[%d]", p), func(pp prim.Proc) {
			for {
				st.Clients[p].Invoke(pp, objtype.CounterOp{Delta: 1})
			}
		})
	}
}

// untimelyGrowing returns the availability map that makes processes
// 0..u-1 untimely with staggered, geometrically growing gaps.
func untimelyGrowing(u int) map[int]sim.Availability {
	m := make(map[int]sim.Availability, u)
	for p := 0; p < u; p++ {
		m[p] = sim.GrowingGaps(400, int64(600+200*p), 1.5)
	}
	return m
}

// classStats summarizes completions over a set of processes.
type classStats struct {
	min, max, sum int64
	n             int
}

func classify(completed []int64, members []int) classStats {
	s := classStats{}
	for i, p := range members {
		c := completed[p]
		if i == 0 || c < s.min {
			s.min = c
		}
		if c > s.max {
			s.max = c
		}
		s.sum += c
		s.n++
	}
	return s
}

func (s classStats) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// ids returns [from, to).
func ids(from, to int) []int {
	out := make([]int, 0, to-from)
	for p := from; p < to; p++ {
		out = append(out, p)
	}
	return out
}
