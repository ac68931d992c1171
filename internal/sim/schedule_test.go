package sim

import (
	"testing"
	"testing/quick"

	"tbwf/internal/prim"
)

func collectSchedule(t *testing.T, s Schedule, n int, steps int64) []int32 {
	t.Helper()
	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}
	out := make([]int32, steps)
	for i := int64(0); i < steps; i++ {
		p := s.Next(i, alive)
		if p < 0 || p >= n {
			t.Fatalf("schedule returned %d, out of range [0,%d)", p, n)
		}
		out[i] = int32(p)
	}
	return out
}

func TestSmoothWeightedShares(t *testing.T) {
	s := SmoothWeighted([]int{3, 1})
	sched := collectSchedule(t, s, 2, 4000)
	counts := make([]int64, 2)
	for _, p := range sched {
		counts[p]++
	}
	if counts[0] != 3000 || counts[1] != 1000 {
		t.Fatalf("shares = %v, want [3000 1000]", counts)
	}
	// Smoothness: process 1 must appear at least once in every window of 5.
	rep := Analyze(sched, 2)
	if rep.Bound[1] > 5 {
		t.Errorf("process 1 observed bound %d, want <= 5 (smooth interleave)", rep.Bound[1])
	}
}

func TestPatternRepeats(t *testing.T) {
	s := Pattern(0, 0, 1)
	sched := collectSchedule(t, s, 2, 9)
	want := []int32{0, 0, 1, 0, 0, 1, 0, 0, 1}
	for i := range want {
		if sched[i] != want[i] {
			t.Fatalf("sched = %v, want %v", sched, want)
		}
	}
}

func TestPatternSkipsDeadProcess(t *testing.T) {
	s := Pattern(0, 1)
	alive := []int{1} // process 0 is gone
	for i := int64(0); i < 10; i++ {
		if got := s.Next(i, alive); got != 1 {
			t.Fatalf("step %d: got %d, want 1", i, got)
		}
	}
}

func TestPatternWrapsBelowWant(t *testing.T) {
	// Regression: when every alive id is below the preferred one, the
	// choice must wrap cyclically to the smallest alive id — even when the
	// alive slice is not sorted, so the wrap cannot silently rely on
	// alive[0] being the minimum.
	s := Pattern(5)
	if got := s.Next(0, []int{1, 3}); got != 1 {
		t.Fatalf("Pattern(5) over alive [1 3] = %d, want 1 (cyclic wrap)", got)
	}
	s = Pattern(5)
	if got := s.Next(0, []int{3, 1}); got != 1 {
		t.Fatalf("Pattern(5) over alive [3 1] = %d, want 1 (cyclic wrap to the minimum)", got)
	}
}

func TestSmoothWeightedEmptyAndZeroWeights(t *testing.T) {
	// Empty weights: every alive process has weight 0, so the schedule must
	// fall back to the deterministic step-indexed rotation.
	s := SmoothWeighted(nil)
	alive := []int{0, 1, 2}
	for i := int64(0); i < 9; i++ {
		want := alive[int(i)%len(alive)]
		if got := s.Next(i, alive); got != want {
			t.Fatalf("empty weights: step %d picked %d, want fallback %d", i, got, want)
		}
	}
	// All-zero weights behave the same.
	s = SmoothWeighted([]int{0, 0})
	if got := s.Next(0, []int{0, 1}); got != 0 {
		t.Fatalf("zero weights: step 0 picked %d, want 0", got)
	}
}

func TestSmoothWeightedSingleAliveProcess(t *testing.T) {
	s := SmoothWeighted([]int{1, 7})
	for i := int64(0); i < 20; i++ {
		if got := s.Next(i, []int{1}); got != 1 {
			t.Fatalf("single alive process: picked %d, want 1", got)
		}
	}
}

func TestFlickerZeroIntensity(t *testing.T) {
	// A flicker with no on- or off-phase (period <= 0) degenerates to
	// Always: the process is never suppressed.
	for _, f := range []Availability{Flicker(0, 0, 0), Flicker(0, 0, 5), Flicker(-1, 1, 0)} {
		for i := int64(0); i < 50; i++ {
			if !f(i) {
				t.Fatalf("zero-intensity flicker suppressed step %d", i)
			}
		}
	}
	// Zero on-steps with a positive period: never available; Restrict must
	// then ignore the availability so time does not stop.
	off := Flicker(0, 3, 0)
	for i := int64(0); i < 9; i++ {
		if off(i) {
			t.Fatalf("Flicker(0,3) available at step %d, want never", i)
		}
	}
	s := Restrict(RoundRobin(), map[int]Availability{0: off})
	if got := s.Next(0, []int{0}); got != 0 {
		t.Fatalf("Restrict with a fully suppressed singleton returned %d, want 0", got)
	}
}

func TestCompositeSchedulesSingleAliveProcess(t *testing.T) {
	// Compositions (Restrict over SoloAfter over a weighted base) must stay
	// well defined when the alive set collapses to one process.
	s := Restrict(
		SoloAfter(SmoothWeighted([]int{2, 1}), 1, 100),
		map[int]Availability{0: Flicker(1, 1, 0)},
	)
	for i := int64(0); i < 200; i++ {
		if got := s.Next(i, []int{1}); got != 1 {
			t.Fatalf("composite schedule: step %d picked %d, want the only alive process 1", i, got)
		}
	}
}

func TestRandomScheduleExposesSeed(t *testing.T) {
	s := Random(42, nil)
	if got := s.Seed(); got != 42 {
		t.Fatalf("Seed() = %d, want 42", got)
	}
	var _ Seeded = s
	var _ Schedule = s
}

func TestFlickerAvailability(t *testing.T) {
	f := Flicker(3, 2, 0)
	want := []bool{true, true, true, false, false, true, true, true, false, false}
	for i, w := range want {
		if f(int64(i)) != w {
			t.Fatalf("flicker(%d) = %v, want %v", i, f(int64(i)), w)
		}
	}
}

func TestGrowingGapsIsEventuallySparse(t *testing.T) {
	g := GrowingGaps(2, 10, 2)
	// Count on-steps in two windows; the later window must be sparser.
	count := func(from, to int64) (c int64) {
		for s := from; s < to; s++ {
			if g(s) {
				c++
			}
		}
		return c
	}
	early := count(0, 1000)
	late := count(100000, 101000)
	if late >= early {
		t.Fatalf("growing gaps not sparser over time: early=%d late=%d", early, late)
	}
	if early == 0 {
		t.Fatal("process never available early on")
	}
}

func TestGrowingGapsRandomAccessConsistent(t *testing.T) {
	// Availability must be a pure function of the step even when queried
	// out of order (Restrict may probe steps non-monotonically after
	// crashes change the alive set).
	mk := func() Availability { return GrowingGaps(3, 5, 1.5) }
	seq := mk()
	inOrder := make([]bool, 5000)
	for i := range inOrder {
		inOrder[i] = seq(int64(i))
	}
	shuffled := mk()
	// Query backwards.
	for i := len(inOrder) - 1; i >= 0; i-- {
		if shuffled(int64(i)) != inOrder[i] {
			t.Fatalf("availability(%d) differs between in-order and reverse queries", i)
		}
	}
}

func TestRestrictFallsBackWhenAllSuppressed(t *testing.T) {
	s := Restrict(RoundRobin(), map[int]Availability{
		0: func(int64) bool { return false },
		1: func(int64) bool { return false },
	})
	alive := []int{0, 1}
	got := s.Next(0, alive)
	if got != 0 && got != 1 {
		t.Fatalf("restricted schedule returned %d with everyone suppressed", got)
	}
}

func TestRandomScheduleRespectsWeights(t *testing.T) {
	s := Random(7, []float64{0.9, 0.1})
	sched := collectSchedule(t, s, 2, 10000)
	var c0 int64
	for _, p := range sched {
		if p == 0 {
			c0++
		}
	}
	if c0 < 8500 || c0 > 9500 {
		t.Fatalf("process 0 got %d of 10000 steps, want about 9000", c0)
	}
}

func TestScheduleAlwaysReturnsAliveMember(t *testing.T) {
	schedules := map[string]func() Schedule{
		"roundrobin": RoundRobin,
		"pattern":    func() Schedule { return Pattern(0, 3, 1, 2) },
		"weighted":   func() Schedule { return SmoothWeighted([]int{1, 2, 3, 4}) },
		"random":     func() Schedule { return Random(1, nil) },
	}
	for name, mk := range schedules {
		s := mk()
		check := func(step int64, aliveMask uint8) bool {
			var alive []int
			for p := 0; p < 4; p++ {
				if aliveMask&(1<<p) != 0 {
					alive = append(alive, p)
				}
			}
			if len(alive) == 0 {
				return true
			}
			got := s.Next(step, alive)
			for _, p := range alive {
				if p == got {
					return true
				}
			}
			return false
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: schedule returned non-alive process: %v", name, err)
		}
	}
}

func TestReplayScheduleReproducesRun(t *testing.T) {
	// Record a random run, then replay its recorded schedule: the kernel
	// must follow a schedule exactly and record what it ran.
	record := func(s Schedule) []int32 {
		k := New(3, WithSchedule(s))
		for p := 0; p < 3; p++ {
			k.Spawn(p, "spin", func(pp prim.Proc) {
				for {
					pp.Step()
				}
			})
		}
		if _, err := k.Run(500); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		return append([]int32(nil), k.Trace().Schedule()...)
	}
	original := record(Random(123, nil))
	replayed := record(ScheduleFunc(func(step int64, alive []int) int {
		return int(original[step])
	}))
	for i := range original {
		if original[i] != replayed[i] {
			t.Fatalf("replay diverges at step %d: %d vs %d", i, original[i], replayed[i])
		}
	}
}
