package explore

import (
	"fmt"
	"strings"

	"tbwf/internal/deploy"
	"tbwf/internal/lincheck"
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
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

// serveScriptOp is one scripted operation: its wire form, and its typed
// counterpart for the linearizability oracle.
type serveScriptOp[O any] struct {
	wire serve.WireOp
	arg  O
}

// counterScriptOp derives replica p's i-th operation on the counter.
func counterScriptOp(env *Env, p, i int) serveScriptOp[objtype.CounterOp] {
	delta := 1 + env.Rand().Int63n(9)
	return serveScriptOp[objtype.CounterOp]{serve.WireOp{Kind: "add", Delta: delta}, objtype.CounterOp{Delta: delta}}
}

// registerScriptOp derives replica p's i-th operation on the register.
func registerScriptOp(env *Env, p, i int) serveScriptOp[objtype.RegOp] {
	v := int64(100*p + i)
	switch env.Rand().Intn(3) {
	case 0:
		return serveScriptOp[objtype.RegOp]{serve.WireOp{Kind: "write", Value: v}, objtype.RegOp{Kind: objtype.RegWrite, New: v}}
	case 1:
		return serveScriptOp[objtype.RegOp]{serve.WireOp{Kind: "read"}, objtype.RegOp{Kind: objtype.RegRead}}
	default:
		old := env.Rand().Int63n(4) * 100
		return serveScriptOp[objtype.RegOp]{serve.WireOp{Kind: "cas", Old: old, New: v}, objtype.RegOp{Kind: objtype.RegCAS, Old: old, New: v}}
	}
}

// serveRig deploys the service backend for object on the kernel, spawns one
// load task per replica running a script of ops drawn by scriptOp, and
// returns three judges: per-replica FIFO (laneLog.fifo), accounting
// (client-completed counts equal served counts; effected ops fit the log),
// and linearizability of the observed wire history against typ.
func serveRig[S, O, R any](object string, typ qa.Type[S, O, R], scriptOp func(env *Env, p, i int) serveScriptOp[O]) Rig {
	return func(k *sim.Kernel, env *Env) ([]Judge, error) {
		n := k.N()
		lanes := newLaneLog(1, n)
		loadsDone := 0

		backend, err := serve.NewBackend(deploy.Sim(k), serve.BackendConfig{
			Object:     object,
			QueueDepth: serveQueueDepth,
			Build: deploy.BuildConfig{
				RegisterOptions: tapedRegisterOptions(env),
			},
		}, laneHooks[serve.Result](lanes))
		if err != nil {
			return nil, err
		}
		backend.Start()

		scripts := make([][]serveScriptOp[O], n)
		for p := range scripts {
			ops := 2 + env.Rand().Intn(serveOpsPerProc-1)
			for i := 0; i < ops; i++ {
				scripts[p] = append(scripts[p], scriptOp(env, p, i))
			}
		}

		var history []lincheck.Op[O, R]
		for p := 0; p < n; p++ {
			k.Spawn(p, fmt.Sprintf("load[%d]", p), func(pp prim.Proc) {
				for _, op := range scripts[p] {
					pd := serve.NewPending(op.wire.Kind)
					for { // submit, riding out backpressure
						pd.Tag = lanes.tag
						err := backend.Submit(p, op.wire, pd)
						if err == nil {
							lanes.accepted(0, p)
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
						history = append(history, lincheck.Op[O, R]{
							Proc:     p,
							Invoke:   invokeAt,
							Response: k.Step(),
							Arg:      op.arg,
							Resp:     res.Raw.(R),
						})
						break
					}
				}
				loadsDone++
			})
		}

		// Accounting: the worker's client completes exactly the served
		// ops (markDone, the Served hook and the done-channel send happen
		// within one scheduled step), and effected ops never exceed the
		// allocated log slots.
		accounting := func(*sim.Kernel, sim.RunResult) Judgement {
			var viols []string
			var completedTotal int64
			for p := 0; p < n; p++ {
				completed := backend.ClientStats(0, p).Completed
				completedTotal += completed
				if observed := len(lanes.served[0][p]); completed != int64(observed) {
					viols = append(viols, fmt.Sprintf("replica %d: client completed %d ops, hooks observed %d", p, completed, observed))
				}
			}
			if slots := backend.Slots(0); completedTotal > slots {
				viols = append(viols, fmt.Sprintf("%d completed ops exceed %d allocated log slots", completedTotal, slots))
			}
			if len(viols) > 0 {
				return failf("%s", strings.Join(viols, "; "))
			}
			return okf("%d completions consistent across hooks, clients and log", completedTotal)
		}
		linearizability := func(k *sim.Kernel, res sim.RunResult) Judgement {
			return linearizable(k, typ, object+" ops", loadUndrained(res, loadsDone, n, serveMinSteps), history)
		}
		return []Judge{lanes.fifo, accounting, linearizability}, nil
	}
}
