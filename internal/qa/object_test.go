package qa

import (
	"fmt"
	"testing"

	"tbwf/internal/prim"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

// tag is an operation's identity.
type tag struct {
	proc int
	seq  int64
}

// counter is a fetch-and-add sequential type (duplicated minimally here to
// avoid an import cycle with objtype's tests).
type counter struct{}

func (counter) Init() int64                           { return 0 }
func (counter) Apply(s int64, d int64) (int64, int64) { return s + d, s }

// opFate is what a client learned about one of its operations.
type opFate struct {
	applied bool
	unknown bool
	resp    int64
}

// protocolOnce runs the Figure 8 client protocol for a single operation:
// invoke, and on ⊥ query until the fate settles, re-invoking on F. It
// gives up ("unknown") after maxCalls calls to keep tests bounded.
func protocolOnce(h *Handle[int64, int64, int64], p prim.Proc, op int64, maxCalls int) opFate {
	calls := 0
	for {
		if calls++; calls > maxCalls {
			return opFate{unknown: true}
		}
		resp, ok := h.Invoke(op)
		if ok {
			return opFate{applied: true, resp: resp}
		}
		for {
			if calls++; calls > maxCalls {
				return opFate{unknown: true}
			}
			r, out := h.Query()
			if out == QueryApplied {
				return opFate{applied: true, resp: r}
			}
			if out == QueryNotApplied {
				break // F: retry the invoke
			}
			p.Step() // ⊥: query again
		}
	}
}

// A solo process must complete every operation without a single ⊥
// (Invoke's solo-progress guarantee: the consensus ballot runs
// uncontended).
func TestSoloInvokesNeverAbort(t *testing.T) {
	k := sim.New(1)
	so, err := NewSim[int64, int64, int64](k, counter{})
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	k.Spawn(0, "client", func(p prim.Proc) {
		h := so.Handle(0)
		for i := 0; i < 50; i++ {
			resp, ok := h.Invoke(1)
			if !ok {
				t.Errorf("solo invoke %d aborted", i)
				return
			}
			got = append(got, resp)
		}
	})
	if _, err := k.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if len(got) != 50 {
		t.Fatalf("completed %d ops, want 50", len(got))
	}
	for i, r := range got {
		if r != int64(i) {
			t.Fatalf("fetch-and-add responses out of order: got[%d] = %d", i, r)
		}
	}
}

// Concurrent clients under a random schedule and probabilistic aborts:
// whatever the protocol reports as applied must be consistent — distinct
// fetch-and-add responses, and a final value bounded by the known/unknown
// fate counts.
func TestConcurrentFetchAddLinearizes(t *testing.T) {
	const n, opsEach = 4, 30
	k := sim.New(n, sim.WithSchedule(sim.Random(5, nil)))
	so, err := NewSim[int64, int64, int64](k, counter{},
		prim.WithAbortPolicy(register.ProbAbort(0.3, 7)))
	if err != nil {
		t.Fatal(err)
	}
	fates := make([][]opFate, n)
	for p := 0; p < n; p++ {
		p := p
		k.Spawn(p, "client", func(pp prim.Proc) {
			h := so.Handle(p)
			for i := 0; i < opsEach; i++ {
				fates[p] = append(fates[p], protocolOnce(h, pp, 1, 4000))
			}
		})
	}
	if _, err := k.Run(30_000_000); err != nil {
		t.Fatal(err)
	}

	// Verify with a solo reader once the clients are done.
	var final int64
	var log []Desc[int64]
	k.Spawn(0, "verifier", func(p prim.Proc) {
		h := so.Handle(0)
		s, ok := h.Sync()
		if !ok {
			t.Error("solo sync aborted")
		}
		final = s
		log, ok = h.SnapshotLog()
		if !ok {
			t.Error("solo log snapshot aborted")
		}
	})
	if _, err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()

	applied, unknown := 0, 0
	seen := map[int64]bool{}
	for p := range fates {
		if len(fates[p]) != opsEach {
			t.Fatalf("process %d finished only %d/%d ops in budget", p, len(fates[p]), opsEach)
		}
		for _, f := range fates[p] {
			switch {
			case f.applied:
				applied++
				if seen[f.resp] {
					t.Fatalf("duplicate fetch-and-add response %d: two ops saw the same previous value", f.resp)
				}
				seen[f.resp] = true
			case f.unknown:
				unknown++
			}
		}
	}
	if int64(applied) > final || final > int64(applied+unknown) {
		t.Fatalf("final counter %d inconsistent with %d applied + %d unknown-fate ops", final, applied, unknown)
	}
	// The log's non-Nop entries must equal the final value, and each
	// response must lie in [0, final).
	effective := 0
	for _, d := range log {
		if !d.Nop {
			effective++
		}
	}
	if int64(effective) != final {
		t.Fatalf("log has %d effective ops but final state is %d", effective, final)
	}
	for r := range seen {
		if r < 0 || r >= final {
			t.Fatalf("applied response %d outside [0,%d)", r, final)
		}
	}
}

// Query must deterministically settle fates: after any ⊥ invoke, repeated
// queries converge to Applied-with-response or F, and F really means the
// op never shows up in the log.
func TestQuerySettlesFates(t *testing.T) {
	const n = 3
	k := sim.New(n, sim.WithSchedule(sim.Random(21, nil)))
	so, err := NewSim[int64, int64, int64](k, counter{}) // strongest adversary
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		proc int
		seq  int64
		fate opFate
	}
	var recs []rec
	for p := 0; p < n; p++ {
		p := p
		k.Spawn(p, "client", func(pp prim.Proc) {
			h := so.Handle(p)
			for i := 0; i < 15; i++ {
				f := protocolOnce(h, pp, 1, 20000)
				recs = append(recs, rec{proc: p, seq: h.seq, fate: f})
			}
		})
	}
	if _, err := k.Run(60_000_000); err != nil {
		t.Fatal(err)
	}
	var log []Desc[int64]
	k.Spawn(0, "verifier", func(p prim.Proc) {
		var ok bool
		log, ok = so.Handle(0).SnapshotLog()
		if !ok {
			t.Error("solo snapshot aborted")
		}
	})
	if _, err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()

	inLog := map[tag]bool{}
	for _, d := range log {
		if !d.Nop {
			th := tag{proc: d.Proc, seq: d.Seq}
			if inLog[th] {
				t.Fatalf("descriptor %+v decided twice", d)
			}
			inLog[th] = true
		}
	}
	for _, r := range recs {
		if r.fate.applied && !inLog[tag{proc: r.proc, seq: r.seq}] {
			t.Errorf("process %d op seq %d reported applied but is not in the log", r.proc, r.seq)
		}
	}
}

// Wait-freedom: under the strongest adversary and heavy contention, every
// single call still returns — clients complete a fixed number of *calls*
// regardless of how many abort.
func TestCallsAlwaysReturn(t *testing.T) {
	const n = 4
	k := sim.New(n, sim.WithSchedule(sim.Random(3, nil)))
	so, err := NewSim[int64, int64, int64](k, counter{})
	if err != nil {
		t.Fatal(err)
	}
	calls := make([]int, n)
	for p := 0; p < n; p++ {
		p := p
		k.Spawn(p, "client", func(pp prim.Proc) {
			h := so.Handle(p)
			for i := 0; i < 300; i++ {
				h.Invoke(1)
				h.Query()
				calls[p] += 2
			}
		})
	}
	if _, err := k.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	for p, c := range calls {
		if c != 600 {
			t.Errorf("process %d completed %d calls, want 600 (wait-freedom)", p, c)
		}
	}
}

// Query with no prior operation reports F, not ⊥.
func TestQueryWithoutInvoke(t *testing.T) {
	k := sim.New(1)
	so, err := NewSim[int64, int64, int64](k, counter{})
	if err != nil {
		t.Fatal(err)
	}
	var out QueryOutcome
	k.Spawn(0, "client", func(p prim.Proc) {
		_, out = so.Handle(0).Query()
	})
	if _, err := k.Run(1000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if out != QueryNotApplied {
		t.Fatalf("query without invoke = %v, want F", out)
	}
}

// The handle registry must hand back the same handle per process.
func TestHandleReuse(t *testing.T) {
	k := sim.New(2)
	so, err := NewSim[int64, int64, int64](k, counter{})
	if err != nil {
		t.Fatal(err)
	}
	if so.Handle(0) != so.Handle(0) {
		t.Fatal("Handle(0) returned two different handles")
	}
	if so.Handle(0) == so.Handle(1) {
		t.Fatal("distinct processes share a handle")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New[int64, int64, int64](counter{}, 0, Factories[int64]{}, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New[int64, int64, int64](counter{}, 2, Factories[int64]{}, 0); err == nil {
		t.Error("nil factories accepted")
	}
}

func TestQueryOutcomeString(t *testing.T) {
	for out, want := range map[QueryOutcome]string{
		QueryAborted:    "⊥",
		QueryApplied:    "applied",
		QueryNotApplied: "F",
	} {
		if out.String() != want {
			t.Errorf("%d.String() = %q, want %q", out, out.String(), want)
		}
	}
	_ = fmt.Sprint(QueryApplied) // exercised for coverage of Stringer use
}
