// Leader election: Ω∆'s dynamic candidacy in action.
//
// Four processes run the Figure 3 implementation of Ω∆ (activity monitors
// + atomic registers) on the simulation kernel. Candidacies change over
// the run — processes join, withdraw, flicker, and one crashes — and the
// timeline shows the leader outputs adapting: a stable timely candidate is
// elected, hands over on withdrawal, survives churn by a repeated
// candidate (the self-punishment rule keeps the flickering process out of
// stable leadership), and re-election happens after the leader crashes.
//
// Run with: go run ./examples/leaderelection
package main

import (
	"fmt"
	"log"

	"tbwf/internal/deploy"
	"tbwf/internal/elector"
	"tbwf/internal/omega"
	"tbwf/internal/register"
	"tbwf/internal/sim"
)

func main() {
	const n = 4
	k := sim.New(n)
	el, err := elector.Atomic.Build(deploy.Sim(k), elector.Config{})
	if err != nil {
		log.Fatal(err)
	}
	insts := el.Instances()
	obs := omega.NewObserver(insts)
	k.AfterStep(obs.Sample)

	for _, inst := range insts {
		inst.Candidate.Set(true)
	}
	note(0, "everyone becomes a candidate")

	// The script: what happens when.
	events := map[int64]func(){
		150_000: func() {
			insts[0].Candidate.Set(false)
			note(150_000, "process 0 (the likely leader) withdraws")
		},
		300_000: func() { note(300_000, "process 3 starts flickering: joins/leaves every 25k steps") },
		700_000: func() { k.Crash(1); note(700_000, "process 1 crashes") },
	}
	flickering := false
	k.AfterStep(func(step int64) {
		if fn, ok := events[step]; ok {
			fn()
			if step == 300_000 {
				flickering = true
			}
		}
		if flickering && step%25_000 == 0 {
			inst := insts[3]
			inst.Candidate.Set(!inst.Candidate.Get())
		}
		if step%100_000 == 0 && step > 0 {
			fmt.Printf("step %7d: leaders = %v\n", step, obs.Leaders())
		}
	})

	if _, err := k.Run(1_200_000); err != nil {
		log.Fatal(err)
	}
	k.Shutdown()

	fmt.Printf("\nfinal leaders: %v  (-1 means \"?\")\n", obs.Leaders())
	fmt.Printf("counter registers: %v  (higher = punished more: withdrawals and suspicions)\n", counters(el))
	fmt.Println("\nexpected reading: after the dust settles, the only permanent, timely,")
	fmt.Println("non-crashed candidate (process 2) is everyone's stable leader, while the")
	fmt.Println("flickering process 3 oscillates between ? and the leader, as the spec allows.")
}

func note(step int64, msg string) {
	fmt.Printf("step %7d: %s\n", step, msg)
}

// counters peeks at Figure 3's shared CounterRegister values — state of
// the atomic-registers construction, reached through elector.Deployment.
func counters(el elector.Elector) []int64 {
	dep, _ := elector.Deployment(el)
	out := make([]int64, dep.N)
	for q := range out {
		out[q] = dep.CounterReg[q].(*register.Atomic[int64]).Peek()
	}
	return out
}
