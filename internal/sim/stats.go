package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"
)

// RunStats is an observability snapshot of a kernel's execution economy:
// how many steps it took, what they cost in goroutine handoffs and trace
// memory, and how fast they ran. The experiment runner (internal/exp)
// aggregates it per experiment, and cmd/tbwf-bench and cmd/tbwf-sim print
// it under their -stats flags.
type RunStats struct {
	// Steps is the total number of steps executed.
	Steps int64
	// Handoffs counts channel baton handoffs between goroutines. Every
	// task switch costs exactly one; the seed kernel's central loop cost
	// two per step regardless of switching.
	Handoffs int64
	// FastPathSteps counts steps that continued on the same goroutine
	// with no channel operation (consecutive steps of one task).
	FastPathSteps int64
	// ScheduleMisses counts schedule decisions that named a
	// non-schedulable process, forcing the round-robin fallback.
	ScheduleMisses int64
	// TraceBytes is the memory retained by the schedule and write traces.
	TraceBytes int64
	// Elapsed is the cumulative wall time spent inside Run.
	Elapsed time.Duration
}

// Stats returns a snapshot of the kernel's execution statistics. Valid
// after (or between) Run calls.
func (k *Kernel) Stats() RunStats {
	return RunStats{
		Steps:          k.step,
		Handoffs:       k.handoffs,
		FastPathSteps:  k.fastSteps,
		ScheduleMisses: k.metrics.ScheduleMisses,
		TraceBytes:     k.trace.Bytes(),
		Elapsed:        k.elapsed,
	}
}

// Add returns the field-wise sum of s and o, for aggregating the stats of
// independent kernels (one per scenario) into an experiment total.
func (s RunStats) Add(o RunStats) RunStats {
	return RunStats{
		Steps:          s.Steps + o.Steps,
		Handoffs:       s.Handoffs + o.Handoffs,
		FastPathSteps:  s.FastPathSteps + o.FastPathSteps,
		ScheduleMisses: s.ScheduleMisses + o.ScheduleMisses,
		TraceBytes:     s.TraceBytes + o.TraceBytes,
		Elapsed:        s.Elapsed + o.Elapsed,
	}
}

// StepsPerSec returns the average simulated-step throughput over the time
// spent inside Run, or 0 when no time was recorded.
func (s RunStats) StepsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Steps) / s.Elapsed.Seconds()
}

// TraceHash fingerprints the executed run with FNV-1a over the recorded
// schedule and the per-process step/operation counters. Two runs with the
// same hash took the same steps in the same order; replay artifacts and
// the substrate conformance suite compare runs by it.
func (k *Kernel) TraceHash() string {
	h := fnv.New64a()
	var buf [8]byte
	wr := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wr(int64(k.N()))
	wr(k.Step())
	var buf4 [4]byte
	for _, s := range k.Trace().Schedule() {
		binary.LittleEndian.PutUint32(buf4[:], uint32(s))
		h.Write(buf4[:])
	}
	m := k.Metrics()
	for p := 0; p < k.N(); p++ {
		wr(m.Steps[p])
		wr(m.Reads[p])
		wr(m.Writes[p])
		wr(m.ReadAborts[p])
		wr(m.WriteAborts[p])
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}
