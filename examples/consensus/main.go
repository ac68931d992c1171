// Consensus from abortable registers — the paper's closing remark made
// runnable.
//
// Section 1.2 observes that because Ω∆ (hence the failure detector Ω,
// which suffices to solve consensus) can be implemented from abortable
// registers, consensus needs nothing stronger than abortable registers
// plus a single timely process. Here four processes propose different
// values; three of them are untimely (their scheduling gaps grow without
// bound) and only process 3 is timely. Under the strongest abort adversary
// — every contended register operation aborts — everyone still decides,
// and on the same proposed value.
//
// Run with: go run ./examples/consensus
package main

import (
	"fmt"
	"log"

	"tbwf/internal/consensus"
	"tbwf/internal/deploy"
	"tbwf/internal/sim"
)

func main() {
	const n = 4
	k := sim.New(n, sim.WithSchedule(sim.Restrict(sim.RoundRobin(), map[int]sim.Availability{
		0: sim.GrowingGaps(400, 600, 1.5),
		1: sim.GrowingGaps(400, 800, 1.5),
		2: sim.GrowingGaps(400, 1000, 1.5),
	})))

	proposals := []int64{111, 222, 333, 444}
	fmt.Println("proposals:", proposals, "— only process 3 is timely")

	parts, err := consensus.Build(deploy.Sim(k), proposals, nil) // Ω∆ from abortable registers
	if err != nil {
		log.Fatal(err)
	}

	decidedAt := make([]int64, n)
	for p := range decidedAt {
		decidedAt[p] = -1
	}
	k.AfterStep(func(step int64) {
		for p := 0; p < n; p++ {
			if decidedAt[p] < 0 && parts[p].Decided.Get() {
				decidedAt[p] = step
				fmt.Printf("step %7d: process %d decides %d\n", step, p, parts[p].Value.Get())
			}
		}
	})

	if _, err := k.Run(6_000_000); err != nil {
		log.Fatal(err)
	}
	k.Shutdown()

	val, all, agree := consensus.DecidedAll(parts, []int{0, 1, 2, 3})
	switch {
	case !all:
		fmt.Println("\nnot everyone decided within the budget (untimely processes can be late)")
	case !agree:
		log.Fatal("\nAGREEMENT VIOLATED — this must never happen")
	default:
		fmt.Printf("\nall processes decided %d — agreement and validity hold, from registers\n", val)
		fmt.Println("weaker than safe, with a single timely process.")
	}
}
