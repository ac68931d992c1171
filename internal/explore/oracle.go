package explore

import (
	"fmt"
	"strings"
	"time"

	"tbwf/internal/lincheck"
	"tbwf/internal/qa"
	"tbwf/internal/shard"
	"tbwf/internal/sim"
)

// Verdict is one property oracle's judgement of one run.
//
// Oracles are *conditioned*: each asserts its property only when the run
// actually established the property's premise (the process was timely, the
// run went idle, the budget was large enough). When the premise failed the
// verdict is vacuously OK with a "vacuous:" detail — a fuzz campaign
// reports such runs as passing, and the detail says why no property was
// actually checked.
type Verdict struct {
	// Oracle names the property checked, e.g. "lincheck" or "tbwf-progress".
	Oracle string `json:"oracle"`
	// OK reports whether the property held (or was vacuous).
	OK bool `json:"ok"`
	// Detail is the human-readable explanation, mandatory for failures.
	Detail string `json:"detail,omitempty"`
}

// String renders the verdict one-per-line for logs and artifacts.
func (v Verdict) String() string {
	status := "ok"
	if !v.OK {
		status = "FAIL"
	}
	if v.Detail == "" {
		return fmt.Sprintf("%s: %s", v.Oracle, status)
	}
	return fmt.Sprintf("%s: %s (%s)", v.Oracle, status, v.Detail)
}

// Judgement is one oracle's verdict before it has a name: judges return
// Judgements, and Execute stamps each with the oracle name the target's row
// declares in that position. The names therefore live in the registry
// table and nowhere else, and rows that share a judge (omega-def5,
// elector-def5 and net-def5 are one Definition 5 judge) keep their own.
type Judgement struct {
	OK     bool
	Detail string
}

// Judge judges a finished run for one oracle. A rig returns one per
// oracle name of its row, in the row's order; each is called once after
// Kernel.Run with the run result, and must only read.
type Judge func(k *sim.Kernel, res sim.RunResult) Judgement

func failf(format string, args ...any) Judgement {
	return Judgement{OK: false, Detail: fmt.Sprintf(format, args...)}
}

func okf(format string, args ...any) Judgement {
	return Judgement{OK: true, Detail: fmt.Sprintf(format, args...)}
}

// vacuousf is a passing judgement whose premise did not hold: nothing was
// actually asserted about this run.
func vacuousf(format string, args ...any) Judgement {
	return Judgement{OK: true, Detail: "vacuous: " + fmt.Sprintf(format, args...)}
}

// linearizable is the linearizability verdict of every history-checking
// row. The row brings its own premise as incomplete: "" when every
// operation that may have taken effect is in the history (the run went
// idle; the load scripts drained), otherwise the reason it may not be —
// an unfinished operation may already have taken effect, so checking the
// recorded prefix could report a false violation. hists are independent
// histories, each checked on its own (one per shard: routing is by key
// hash, so shards touch disjoint keys, and every search stays under the
// checker's 64-op cap); what names their operations in the verdict.
func linearizable[S, O, R any](k *sim.Kernel, typ qa.Type[S, O, R], what, incomplete string, hists ...[]lincheck.Op[O, R]) Judgement {
	for p := 0; p < k.N(); p++ {
		if k.Crashed(p) {
			return vacuousf("process %d crashed: its in-flight operation may have taken effect unrecorded", p)
		}
	}
	if incomplete != "" {
		return vacuousf("%s", incomplete)
	}
	total := 0
	for i, hist := range hists {
		if len(hist) == 0 {
			continue
		}
		where := ""
		if len(hists) > 1 {
			where = fmt.Sprintf("shard %d: ", i)
		}
		_, ok, err := lincheck.Check(typ, hist, lincheck.Options[S, R]{})
		if err != nil {
			return vacuousf("%schecker rejected the history: %v", where, err)
		}
		if !ok {
			return failf("%shistory of %d %s is not linearizable", where, len(hist), what)
		}
		total += len(hist)
	}
	if total == 0 {
		return vacuousf("no operation took effect")
	}
	return okf("%d %s linearizable", total, what)
}

// notIdle is the lincheck premise of the rigs whose clients finish: the
// run must have gone idle.
func notIdle(res sim.RunResult, settled int) string {
	if res.Idle {
		return ""
	}
	return fmt.Sprintf("run did not go idle (%d ops settled): history may be incomplete", settled)
}

// loadUndrained is the lincheck premise of the service-level rigs. Their
// workers poll forever, so a run never goes idle; the gate is the load
// scripts having finished, which means every accepted operation settled.
// It returns the vacuous reason, or "".
func loadUndrained(res sim.RunResult, done, n int, minSteps int64) string {
	switch {
	case done == n:
		return ""
	case res.Steps < minSteps:
		return fmt.Sprintf("budget %d < %d: load did not finish (%d/%d)", res.Steps, minSteps, done, n)
	default:
		return fmt.Sprintf("load did not drain (%d/%d processes finished): history incomplete", done, n)
	}
}

// laneLog is the bookkeeping behind the request path's accept-order
// oracle: per (shard, replica) lane, the submission tags in queue-accept
// order and in completion order. The unkeyed service is the one-shard
// case. Everything is written only from kernel tasks (the Served hook
// fires inside a worker task), and the kernel runs one task at a time, so
// plain slices are safe.
type laneLog struct {
	accept, served [][][]int64
	rejects        int64
	tag            int64 // the next submission's tag
}

func newLaneLog(shards, n int) *laneLog {
	l := &laneLog{accept: make([][][]int64, shards), served: make([][][]int64, shards)}
	for s := range l.accept {
		l.accept[s] = make([][]int64, n)
		l.served[s] = make([][]int64, n)
	}
	return l
}

// laneHooks returns the Map hooks that feed l. A load task stamps l.tag
// on its Pending before Submit and calls accepted once Submit took it.
func laneHooks[T any](l *laneLog) shard.HooksOf[T] {
	return shard.HooksOf[T]{
		Served: func(s, p int, pd *shard.PendingOf[T], _ int, _ time.Duration) {
			l.served[s][p] = append(l.served[s][p], pd.Tag.(int64))
		},
		Shed: func(_, _ int, _ error) { l.rejects++ },
	}
}

func (l *laneLog) accepted(s, p int) {
	l.accept[s][p] = append(l.accept[s][p], l.tag)
	l.tag++
}

// completions counts shard s's completed submissions.
func (l *laneLog) completions(s int) (total int64) {
	for _, lane := range l.served[s] {
		total += int64(len(lane))
	}
	return total
}

// fifo is the accept-order oracle: a lane's single worker drains its ring
// in accept order, and a batch's responses are delivered in batch index
// order, so each lane's completion sequence must be a prefix of its accept
// sequence — queueing may delay but never reorder.
func (l *laneLog) fifo(*sim.Kernel, sim.RunResult) Judgement {
	var viols []string
	var total int64
	for s := range l.served {
		total += l.completions(s)
		for p, served := range l.served[s] {
			accept := l.accept[s][p]
			if len(served) > len(accept) {
				viols = append(viols, fmt.Sprintf("shard %d replica %d completed %d ops but accepted only %d",
					s, p, len(served), len(accept)))
				continue
			}
			for i, tag := range served {
				if tag != accept[i] {
					viols = append(viols, fmt.Sprintf("shard %d replica %d completion %d: tag %d, accept order has %d",
						s, p, i, tag, accept[i]))
					break
				}
			}
		}
	}
	if len(viols) > 0 {
		return failf("%s", strings.Join(viols, "; "))
	}
	return okf("%d completions in per-(shard,replica) accept order (%d backpressure rejections)", total, l.rejects)
}

// suffixReport analyzes the timeliness of the executed schedule's suffix
// starting at step from. Oracles use it to condition on *sustained*
// timeliness near the end of the run, where their properties are read off.
func suffixReport(k *sim.Kernel, from int64) *sim.TimelinessReport {
	sched := k.Trace().Schedule()
	if from < 0 {
		from = 0
	}
	if from > int64(len(sched)) {
		from = int64(len(sched))
	}
	return sim.Analyze(sched[from:], k.N())
}

// allTimely reports whether every process in procs has a finite bound at
// most limit in the report.
func allTimely(rep *sim.TimelinessReport, procs []int, limit int64) bool {
	for _, p := range procs {
		b := rep.Bound[p]
		if b == sim.Unbounded || b > limit {
			return false
		}
	}
	return true
}
