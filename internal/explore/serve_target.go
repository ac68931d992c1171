package explore

import (
	"fmt"
	"time"

	"tbwf/internal/deploy"
	"tbwf/internal/lincheck"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/serve"
	"tbwf/internal/shard"
	"tbwf/internal/sim"
)

// The serve/* targets fuzz the *service layer*, not just the TBWF stack:
// each replica runs the real internal/serve backend — bounded ring queue,
// backpressure, one worker task per replica draining the queue through the
// process's TBWF client — deployed on the simulation kernel through the
// same composition root (deploy.Build) the live HTTP service uses. A
// seed-derived load script per replica submits wire-encoded operations,
// retries through shard.ErrQueueFull, and polls completions cooperatively, so
// the fuzzer explores end-to-end service histories: queueing delays,
// backpressure rejections, and TBWF client scheduling all interleave under
// the plan's schedule, and every run replays byte-exactly.
const (
	// serveOpsPerProc caps the load script (the exact count is
	// seed-derived in [2, serveOpsPerProc]).
	serveOpsPerProc = 4
	// serveQueueDepth keeps the ring tiny so backpressure is reachable.
	serveQueueDepth = 2
	// serveMinSteps is the budget below which the stack plus queueing
	// cannot be expected to drain the whole load (the oracles go vacuous,
	// they do not fail).
	serveMinSteps = 400_000
)

// serveTargets returns the service-level registry entries.
func serveTargets() []Target {
	return []Target{
		{
			Name:      "serve/counter",
			Desc:      "sim-deployed service backend (queue+backpressure+TBWF counter); FIFO, accounting and lincheck oracles",
			Oracles:   []string{"serve-fifo", "serve-accounting", "serve-lincheck"},
			N:         3,
			Steps:     800_000,
			NoCrashes: true, // the oracles need every accepted op to settle
			CrashProc: -1,
			Build: func(k *sim.Kernel, env *Env) (Check, error) {
				return buildServe(k, env, "counter")
			},
		},
		{
			Name:      "serve/register",
			Desc:      "sim-deployed service backend over the register object (read/write/cas wire ops); FIFO, accounting and lincheck oracles",
			Oracles:   []string{"serve-fifo", "serve-accounting", "serve-lincheck"},
			N:         3,
			Steps:     800_000,
			NoCrashes: true,
			CrashProc: -1,
			Build: func(k *sim.Kernel, env *Env) (Check, error) {
				return buildServe(k, env, "register")
			},
		},
	}
}

// serveScript is one replica's seed-derived load: wire ops plus their
// typed counterparts for the linearizability oracle (register target).
type serveScript struct {
	wire  []serve.WireOp
	typed []objtype.RegOp
}

func makeServeScript(env *Env, object string, p int) serveScript {
	var s serveScript
	ops := 2 + env.Rand().Intn(serveOpsPerProc-1)
	for i := 0; i < ops; i++ {
		switch object {
		case "counter":
			s.wire = append(s.wire, serve.WireOp{Kind: "add", Delta: 1 + env.Rand().Int63n(9)})
		case "register":
			v := int64(100*p + i)
			switch env.Rand().Intn(3) {
			case 0:
				s.wire = append(s.wire, serve.WireOp{Kind: "write", Value: v})
				s.typed = append(s.typed, objtype.RegOp{Kind: objtype.RegWrite, New: v})
			case 1:
				s.wire = append(s.wire, serve.WireOp{Kind: "read"})
				s.typed = append(s.typed, objtype.RegOp{Kind: objtype.RegRead})
			default:
				old := env.Rand().Int63n(4) * 100
				s.wire = append(s.wire, serve.WireOp{Kind: "cas", Old: old, New: v})
				s.typed = append(s.typed, objtype.RegOp{Kind: objtype.RegCAS, Old: old, New: v})
			}
		}
	}
	return s
}

// buildServe deploys the service backend on the kernel, spawns one load
// task per replica, and returns a check with three oracles: per-replica
// FIFO (completion order is a prefix of accept order), accounting
// (client-completed counts equal served counts; effected ops fit the log),
// and linearizability of the observed wire history.
func buildServe(k *sim.Kernel, env *Env, object string) (Check, error) {
	n := k.N()
	sub := deploy.Sim(k)

	// Per-replica accounting. Everything below is written only from kernel
	// tasks (the Served hook fires inside a worker task), and the kernel
	// runs one task at a time, so plain slices are safe.
	acceptOrder := make([][]int64, n) // tag sequence in queue-accept order
	serveOrder := make([][]int64, n)  // tag sequence in completion order
	rejects := make([]int64, n)
	loadsDone := 0
	var seq int64

	backend, err := serve.NewBackend(sub, serve.BackendConfig{
		Object:     object,
		QueueDepth: serveQueueDepth,
		Build: deploy.BuildConfig{
			RegisterOptions: tapedRegisterOptions(env),
		},
	}, serve.Hooks{
		Served: func(_, p int, pd *serve.Pending, _ int, _ time.Duration) {
			serveOrder[p] = append(serveOrder[p], pd.Tag.(int64))
		},
		Shed: func(_, p int, _ error) { rejects[p]++ },
	})
	if err != nil {
		return nil, err
	}
	backend.Start()

	scripts := make([]serveScript, n)
	for p := range scripts {
		scripts[p] = makeServeScript(env, object, p)
	}

	var counterHist []lincheck.Op[objtype.CounterOp, int64]
	var registerHist []lincheck.Op[objtype.RegOp, objtype.RegResp]

	for p := 0; p < n; p++ {
		p := p
		script := scripts[p]
		k.Spawn(p, fmt.Sprintf("load[%d]", p), func(pp prim.Proc) {
			for i, op := range script.wire {
				pd := serve.NewPending(op.Kind)
				for { // submit, riding out backpressure
					pd.Tag = seq
					err := backend.Submit(p, op, pd)
					if err == nil {
						acceptOrder[p] = append(acceptOrder[p], seq)
						seq++
						break
					}
					if err != shard.ErrQueueFull {
						panic(fmt.Sprintf("serve target: scripted op rejected: %v", err))
					}
					pp.Step()
				}
				invokeAt := k.Step()
				for { // poll the completion cooperatively
					res, ok := pd.Poll()
					if !ok {
						pp.Step()
						continue
					}
					switch object {
					case "counter":
						counterHist = append(counterHist, lincheck.Op[objtype.CounterOp, int64]{
							Proc:     p,
							Invoke:   invokeAt,
							Response: k.Step(),
							Arg:      objtype.CounterOp{Delta: op.Delta},
							Resp:     res.Raw.(int64),
						})
					case "register":
						registerHist = append(registerHist, lincheck.Op[objtype.RegOp, objtype.RegResp]{
							Proc:     p,
							Invoke:   invokeAt,
							Response: k.Step(),
							Arg:      script.typed[i],
							Resp:     res.Raw.(objtype.RegResp),
						})
					}
					break
				}
			}
			loadsDone++
		})
	}

	check := func(k *sim.Kernel, res sim.RunResult) []Verdict {
		var vs []Verdict

		// FIFO: a replica's single worker drains its ring in accept order,
		// so the completion sequence must be a prefix of the accept
		// sequence — queueing may delay but never reorder.
		const fifoOracle = "serve-fifo"
		fifoOK := true
		for p := 0; p < n; p++ {
			if len(serveOrder[p]) > len(acceptOrder[p]) {
				vs = append(vs, failf(fifoOracle, "replica %d completed %d ops but accepted only %d",
					p, len(serveOrder[p]), len(acceptOrder[p])))
				fifoOK = false
				continue
			}
			for i, tag := range serveOrder[p] {
				if tag != acceptOrder[p][i] {
					vs = append(vs, failf(fifoOracle, "replica %d completion %d: tag %d, accept order has %d",
						p, i, tag, acceptOrder[p][i]))
					fifoOK = false
					break
				}
			}
		}
		if fifoOK {
			var total, rej int64
			for p := 0; p < n; p++ {
				total += int64(len(serveOrder[p]))
				rej += rejects[p]
			}
			vs = append(vs, okf(fifoOracle, "%d completions in accept order (%d backpressure rejections)", total, rej))
		}

		// Accounting: the worker's client completes exactly the served
		// ops (markDone, the Served hook and the done-channel send happen
		// within one scheduled step), and effected ops never exceed the
		// allocated log slots.
		const acctOracle = "serve-accounting"
		acctOK := true
		var completedTotal int64
		for p := 0; p < n; p++ {
			completed := backend.ClientStats(0, p).Completed
			completedTotal += completed
			if completed != int64(len(serveOrder[p])) {
				vs = append(vs, failf(acctOracle, "replica %d: client completed %d ops, hooks observed %d",
					p, completed, len(serveOrder[p])))
				acctOK = false
			}
		}
		if slots := backend.Slots(0); completedTotal > slots {
			vs = append(vs, failf(acctOracle, "%d completed ops exceed %d allocated log slots", completedTotal, slots))
			acctOK = false
		}
		if acctOK {
			vs = append(vs, okf(acctOracle, "%d completions consistent across hooks, clients and log", completedTotal))
		}

		// Linearizability of the service history. The workers poll forever
		// so the run never goes idle; the gate is the load scripts having
		// finished, which means every accepted operation settled.
		const linOracle = "serve-lincheck"
		for p := 0; p < n; p++ {
			if k.Crashed(p) {
				return append(vs, vacuousf(linOracle, "process %d crashed: history may be incomplete", p))
			}
		}
		if loadsDone < n {
			if res.Steps < serveMinSteps {
				return append(vs, vacuousf(linOracle, "budget %d < %d: load did not finish (%d/%d)",
					res.Steps, serveMinSteps, loadsDone, n))
			}
			return append(vs, vacuousf(linOracle, "load did not drain (%d/%d replicas finished): history incomplete", loadsDone, n))
		}
		switch object {
		case "counter":
			if len(counterHist) == 0 {
				return append(vs, vacuousf(linOracle, "empty history"))
			}
			_, ok, err := lincheck.Check(objtype.Counter{}, counterHist, lincheck.Options[int64, int64]{})
			if err != nil {
				return append(vs, vacuousf(linOracle, "checker rejected the history: %v", err))
			}
			if !ok {
				return append(vs, failf(linOracle, "service history of %d counter ops is not linearizable", len(counterHist)))
			}
			vs = append(vs, okf(linOracle, "%d counter ops linearizable", len(counterHist)))
		case "register":
			if len(registerHist) == 0 {
				return append(vs, vacuousf(linOracle, "empty history"))
			}
			_, ok, err := lincheck.Check(objtype.Register{}, registerHist, lincheck.Options[int64, objtype.RegResp]{})
			if err != nil {
				return append(vs, vacuousf(linOracle, "checker rejected the history: %v", err))
			}
			if !ok {
				return append(vs, failf(linOracle, "service history of %d register ops is not linearizable", len(registerHist)))
			}
			vs = append(vs, okf(linOracle, "%d register ops linearizable", len(registerHist)))
		}
		return vs
	}
	return check, nil
}
