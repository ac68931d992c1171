// Command tbwf-sim runs a single TBWF scenario on the simulation kernel
// and prints a progress report: which processes were timely (observed
// bounds), how many operations each completed, and whether the TBWF
// condition held for the run.
//
// Usage:
//
//	tbwf-sim -n 4 -steps 3000000 -untimely 1 -elector atomic
//	tbwf-sim -n 3 -elector abortable -wanted 5
//	tbwf-sim -n 3 -elector nerio
//	tbwf-sim -n 3 -crash 1@500000
//	tbwf-sim -n 3 -substrate net -steps 20000000
//	                                       # ABD quorum registers on the fabric
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tbwf/internal/core"
	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/net"
	"tbwf/internal/objtype"
	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tbwf-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tbwf-sim", flag.ContinueOnError)
	n := fs.Int("n", 4, "number of processes")
	steps := fs.Int64("steps", 3_000_000, "step budget")
	untimely := fs.Int("untimely", 0, "how many low-id processes are untimely (growing gaps)")
	electorFlag := fs.String("elector", "",
		fmt.Sprintf("Ω∆ leader elector: %s (default atomic)", strings.Join(elector.Names(), " | ")))
	wanted := fs.Int64("wanted", 0, "ops per process (0 = hammer without target)")
	crash := fs.String("crash", "", "crash spec proc@step (e.g. 1@500000)")
	seed := fs.Int64("seed", 0, "random schedule seed (0 = round-robin base)")
	nonCanonical := fs.Bool("non-canonical", false, "skip the canonical wait (demonstrates monopolization)")
	stats := fs.Bool("stats", false, "print kernel execution statistics")
	substrate := fs.String("substrate", "sim",
		"execution substrate: sim | net (net = ABD quorum registers on the message fabric)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *substrate {
	case "sim", "net":
	default:
		return fmt.Errorf("unknown substrate %q (accepted values: sim, net)", *substrate)
	}
	if *n < 2 {
		return fmt.Errorf("need at least 2 processes")
	}
	if *untimely >= *n {
		return fmt.Errorf("untimely (%d) must be < n (%d)", *untimely, *n)
	}

	var base sim.Schedule = sim.RoundRobin()
	if *seed != 0 {
		base = sim.Random(*seed, nil)
	}
	avail := map[int]sim.Availability{}
	for p := 0; p < *untimely; p++ {
		avail[p] = sim.GrowingGaps(400, int64(600+200*p), 1.5)
	}
	k := sim.New(*n, sim.WithSchedule(sim.Restrict(base, avail)))

	if *crash != "" {
		parts := strings.SplitN(*crash, "@", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad crash spec %q, want proc@step", *crash)
		}
		proc, err1 := strconv.Atoi(parts[0])
		at, err2 := strconv.ParseInt(parts[1], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad crash spec %q", *crash)
		}
		if proc < 0 || proc >= *n {
			return fmt.Errorf("crash spec %q: process out of range [0,%d)", *crash, *n)
		}
		k.CrashAt(proc, at)
	}

	builder, err := elector.Parse(*electorFlag)
	if err != nil {
		return err
	}

	sub := deploy.Sim(k)
	var fab *net.Fabric
	var netSub *net.Substrate
	if *substrate == "net" {
		// Every register becomes a majority-quorum ABD round over the
		// deterministic fabric; the fabric shares the -seed so the whole
		// run (schedule and network) replays from one number.
		fseed := *seed
		if fseed == 0 {
			fseed = 1
		}
		netSub, fab, err = net.NewFabric(k, net.FabricConfig{Seed: fseed, MinDelay: 1, MaxDelay: 3}, net.Config{})
		if err != nil {
			return err
		}
		sub = netSub
	}
	st, err := deploy.Build[int64, objtype.CounterOp, int64](sub, objtype.Counter{},
		deploy.BuildConfig{Elector: builder, NonCanonical: *nonCanonical})
	if err != nil {
		return err
	}
	obs := omega.NewObserver(st.Instances)
	k.AfterStep(obs.Sample)

	wantedSlice := make([]int64, *n)
	for p := 0; p < *n; p++ {
		p := p
		target := *wanted
		if target == 0 {
			wantedSlice[p] = 0
		} else {
			wantedSlice[p] = target
		}
		k.Spawn(p, fmt.Sprintf("client[%d]", p), func(pp prim.Proc) {
			for i := int64(0); target == 0 || i < target; i++ {
				st.Clients[p].Invoke(pp, objtype.CounterOp{Delta: 1})
			}
		})
	}

	res, err := k.Run(*steps)
	if err != nil {
		return err
	}
	k.Shutdown()

	timeliness, err := k.Trace().Analyze()
	if err != nil {
		return err
	}
	rep, err := core.Evaluate(timeliness, st.CompletedOps(), wantedSlice, 256)
	if err != nil {
		return err
	}
	schedNote := ""
	if s, ok := base.(sim.Seeded); ok {
		schedNote = fmt.Sprintf(", schedule seed %d", s.Seed())
	}
	fmt.Printf("ran %d steps (%s substrate, %s Ω∆%s)%s\n\n",
		res.Steps, *substrate, st.Elector.Name(), schedNote, idleNote(res))
	fmt.Print(rep)
	fmt.Printf("\nleaders at end: %v (stabilized at step %d, %d changes)\n",
		obs.Leaders(), obs.StabilizedAt(), obs.Changes())
	if fab != nil {
		// Kernel metrics only see shared-memory registers; on the net
		// substrate the interesting counters live on the fabric.
		rq, wq := netSub.Quorums()
		fmt.Printf("quorum registers: read %d / write %d of %d nodes, %d messages dropped\n",
			rq, wq, *n, fab.Dropped())
	} else {
		fmt.Printf("register ops: %d (%d aborted)\n", k.Metrics().TotalOps(), k.Metrics().TotalAborts())
	}
	if *wanted > 0 {
		fmt.Printf("TBWF verdict: %v\n", rep.TBWFHolds())
	}
	if *stats {
		s := k.Stats()
		fastPct := 0.0
		if s.Steps > 0 {
			fastPct = 100 * float64(s.FastPathSteps) / float64(s.Steps)
		}
		fmt.Printf("kernel: %d steps in %v (%.2fM steps/s), %d handoffs, %.1f%% fast-path, %d schedule misses, %d trace bytes\n",
			s.Steps, s.Elapsed.Round(1e6), s.StepsPerSec()/1e6, s.Handoffs, fastPct, s.ScheduleMisses, s.TraceBytes)
	}
	return nil
}

func idleNote(res sim.RunResult) string {
	if res.Idle {
		return ", all clients finished early"
	}
	return ""
}
