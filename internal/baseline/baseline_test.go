package baseline

import (
	"fmt"
	"testing"

	"tbwf/internal/register"

	"tbwf/internal/deploy"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/sim"
)

// completer abstracts the three baseline clients for shared test drivers.
type completer interface {
	Completed() int64
}

// invoker is a client that can run counter ops.
type invoker interface {
	completer
	Invoke(p prim.Proc, op objtype.CounterOp) int64
}

// spawnHammer gives each process a task that invokes Add(1) forever.
func spawnHammer(k *sim.Kernel, clients []invoker) {
	for p := range clients {
		p := p
		k.Spawn(p, fmt.Sprintf("client[%d]", p), func(pp prim.Proc) {
			for {
				clients[p].Invoke(pp, objtype.CounterOp{Delta: 1})
			}
		})
	}
}

func asInvokers[C invoker](cs []C) []invoker {
	out := make([]invoker, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

// weakAdversary is the abort policy used for baseline runs; see the
// comment in TestBaselinesCompleteWhenAllTimely.
func weakAdversary() prim.AbOption {
	return prim.WithAbortPolicy(register.ProbAbort(0.5, 23))
}

// untimelySchedule makes process 0 untimely with geometrically growing
// gaps while the rest stay timely.
func untimelySchedule() sim.Schedule {
	return sim.Restrict(sim.Random(17, nil), map[int]sim.Availability{
		0: sim.GrowingGaps(400, 800, 1.6),
	})
}

// All three baselines do complete operations when everyone is timely —
// they are correct boosters under their own assumption.
func TestBaselinesCompleteWhenAllTimely(t *testing.T) {
	builders := map[string]func(k *sim.Kernel) ([]invoker, error){
		// The baselines get a *weaker* adversary than the TBWF tests use:
		// under the strongest always-abort adversary their unarbitrated
		// apply phases livelock even with everyone timely, which is
		// itself part of the paper's point. Probabilistic aborts let
		// their happy path work.
		"of-only": func(k *sim.Kernel) ([]invoker, error) {
			cs, err := BuildOF[int64, objtype.CounterOp, int64](register.Substrate(k), objtype.Counter{}, weakAdversary())
			return asInvokers(cs), err
		},
		"panic-booster": func(k *sim.Kernel) ([]invoker, error) {
			cs, err := BuildPanic[int64, objtype.CounterOp, int64](register.Substrate(k), objtype.Counter{}, weakAdversary())
			return asInvokers(cs), err
		},
		"ack-booster": func(k *sim.Kernel) ([]invoker, error) {
			cs, err := BuildAck[int64, objtype.CounterOp, int64](register.Substrate(k), objtype.Counter{}, weakAdversary())
			return asInvokers(cs), err
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			k := sim.New(3, sim.WithSchedule(sim.Random(9, nil)))
			clients, err := build(k)
			if err != nil {
				t.Fatal(err)
			}
			spawnHammer(k, clients)
			if _, err := k.Run(2_000_000); err != nil {
				t.Fatal(err)
			}
			k.Shutdown()
			for p, c := range clients {
				if c.Completed() == 0 {
					t.Errorf("process %d completed no ops with everyone timely", p)
				}
			}
		})
	}
}

// halves runs the scenario and returns each process's completions in the
// first and second half of the budget.
func halves(t *testing.T, k *sim.Kernel, clients []invoker, budget int64) (first, second []int64) {
	t.Helper()
	spawnHammer(k, clients)
	if _, err := k.Run(budget / 2); err != nil {
		t.Fatal(err)
	}
	first = make([]int64, len(clients))
	for p, c := range clients {
		first[p] = c.Completed()
	}
	if _, err := k.Run(budget / 2); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	second = make([]int64, len(clients))
	for p, c := range clients {
		second[p] = c.Completed() - first[p]
	}
	return first, second
}

// The panic booster's collapse: an untimely process that holds the minimum
// (timestamp, id) priority stalls the *timely* processes for the length of
// its growing gaps — their throughput decays instead of staying steady.
// The run is *constructed*, as the paper says it can be: process 0's
// scheduling gaps begin exactly when it holds the panic priority, and they
// grow without bound. A state-oblivious gap pattern would only stall the
// others when a gap happened to catch 0 inside panic mode.
func TestPanicBoosterCollapsesUnderOneUntimelyProcess(t *testing.T) {
	var cs []*PanicClient[int64, objtype.CounterOp, int64]
	// Adversarial availability for process 0: as soon as it publishes a
	// panic timestamp, suppress it for a gap that doubles each time, then
	// give it a burst long enough to finish its operation (so it stays
	// correct and untimely rather than effectively crashed).
	var gapUntil, burstUntil int64
	gap := int64(10_000)
	const burst = 5_000
	avail := func(step int64) bool {
		if step < gapUntil {
			return false
		}
		if step < burstUntil {
			return true
		}
		if len(cs) > 0 && cs[0].panicReg[0].(*register.Atomic[int64]).Peek() != 0 {
			gapUntil = step + gap
			gap *= 2
			burstUntil = gapUntil + burst
			return false
		}
		return true
	}
	sched := sim.Restrict(sim.Random(17, nil), map[int]sim.Availability{0: avail})
	k2 := sim.New(3, sim.WithSchedule(sched))
	cs, err := BuildPanic[int64, objtype.CounterOp, int64](register.Substrate(k2), objtype.Counter{}, weakAdversary())
	if err != nil {
		t.Fatal(err)
	}
	first, second := halves(t, k2, asInvokers(cs), 4_000_000)
	timelyFirst := first[1] + first[2]
	timelySecond := second[1] + second[2]
	if timelyFirst == 0 {
		t.Fatal("timely processes made no progress even early on")
	}
	if timelySecond*2 >= timelyFirst {
		t.Errorf("no collapse: timely completions first half %d, second half %d (want second < half of first)",
			timelyFirst, timelySecond)
	}
}

// The ack booster's collapse: adaptive timeouts for the untimely process
// grow without bound and every round waits for its gaps.
func TestAckBoosterCollapsesUnderOneUntimelyProcess(t *testing.T) {
	k := sim.New(3, sim.WithSchedule(untimelySchedule()))
	cs, err := BuildAck[int64, objtype.CounterOp, int64](register.Substrate(k), objtype.Counter{}, weakAdversary())
	if err != nil {
		t.Fatal(err)
	}
	first, second := halves(t, k, asInvokers(cs), 4_000_000)
	timelyFirst := first[1] + first[2]
	timelySecond := second[1] + second[2]
	if timelyFirst == 0 {
		t.Fatal("timely processes made no progress even early on")
	}
	if timelySecond*2 >= timelyFirst {
		t.Errorf("no collapse: timely completions first half %d, second half %d", timelyFirst, timelySecond)
	}
	// The mechanism: suspicion timeouts for process 0 grew at the timely
	// clients.
	if cs[1].Timeout(0) <= 16 && cs[2].Timeout(0) <= 16 {
		t.Errorf("suspicion timeouts for the untimely process never grew: %d, %d",
			cs[1].Timeout(0), cs[2].Timeout(0))
	}
}

// The contrast that is the paper's point: in the *same* scenario, the TBWF
// stack keeps the timely processes' throughput steady.
func TestTBWFDoesNotCollapseInSameScenario(t *testing.T) {
	k := sim.New(3, sim.WithSchedule(untimelySchedule()))
	st, err := deploy.Build[int64, objtype.CounterOp, int64](deploy.Sim(k), objtype.Counter{}, deploy.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		p := p
		k.Spawn(p, fmt.Sprintf("client[%d]", p), func(pp prim.Proc) {
			for {
				st.Clients[p].Invoke(pp, objtype.CounterOp{Delta: 1})
			}
		})
	}
	if _, err := k.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	first := st.Clients[1].Completed() + st.Clients[2].Completed()
	if _, err := k.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	second := st.Clients[1].Completed() + st.Clients[2].Completed() - first
	if first == 0 {
		t.Fatal("TBWF timely processes made no progress in first half")
	}
	if second*2 < first {
		t.Errorf("TBWF throughput collapsed too: first half %d, second half %d", first, second)
	}
}
