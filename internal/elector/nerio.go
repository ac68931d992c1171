package elector

import (
	"fmt"

	"tbwf/internal/omega"
	"tbwf/internal/prim"
	"tbwf/internal/register"
)

// Nerio is an epoch/lease elector in the style of van Renesse's Nerio
// coordinator design: leadership is a deterministic function of a shared
// epoch number (leader of epoch e is process e mod n), the incumbent
// proves liveness by renewing a lease register, and a candidate that
// misses enough renewals deposes the incumbent by advancing the epoch.
// Each deposition a process performs doubles its own patience, so a timely
// incumbent is deposed only finitely often and the epoch — hence the
// leader — stabilizes. Its fault matrix counts depositions: matrix[p][q]
// is how many times p advanced the epoch away from incumbent q.
var Nerio = NewNerio(NerioOptions{})

func init() {
	Register(Nerio, "nerio-lease")
}

// nerioInitialPatience is the initial number of observation loops a
// candidate waits without seeing a lease renewal before deposing the
// incumbent. It doubles on every deposition the candidate performs, so the
// exact value only shifts how fast patience adapts.
const nerioInitialPatience = 16

// NerioOptions selects deliberate ablations of the Nerio elector for the
// bake-off's negative controls. The zero value is the sound elector.
type NerioOptions struct {
	// NoDepose removes the epoch advance: incumbents are never deposed,
	// so the epoch freezes at 0 and leadership sticks to process 0
	// regardless of candidacy, timeliness, or crashes — a non-Ω∆-correct
	// elector the Definition 5 oracle must catch (elector-nerio-nodepose).
	NoDepose bool
}

// NewNerio returns a Builder for the Nerio elector with the given
// options. Ablated variants are for fuzz negative controls only and are
// not registered in the flag vocabulary.
func NewNerio(opts NerioOptions) Builder {
	return NewBuilder("nerio", func(sub prim.Substrate, cfg Config) (Elector, error) {
		return buildNerio(sub, opts)
	})
}

type nerioElector struct {
	name      string
	instances []*omega.Instance
	// depositions[p][q] counts p's depositions of incumbent q — the
	// telemetry fault matrix. Vars are RWMutex-guarded, safe for samplers.
	depositions [][]*prim.Var[int64]
}

func buildNerio(sub prim.Substrate, opts NerioOptions) (Elector, error) {
	n := sub.N()
	if n < 2 {
		return nil, fmt.Errorf("elector: nerio: n = %d, need at least 2 processes", n)
	}
	epoch := register.SubstrateAtomic(sub, "Nerio/Epoch", int64(0))
	lease := make([]prim.Register[int64], n)
	for p := 0; p < n; p++ {
		lease[p] = register.SubstrateAtomic(sub, fmt.Sprintf("Nerio/Lease[%d]", p), int64(0))
	}
	name := "nerio-lease"
	if opts.NoDepose {
		name = "nerio-lease-nodepose"
	}
	e := &nerioElector{
		name:        name,
		instances:   make([]*omega.Instance, n),
		depositions: make([][]*prim.Var[int64], n),
	}
	for p := 0; p < n; p++ {
		e.instances[p] = omega.NewInstance(p)
		e.depositions[p] = make([]*prim.Var[int64], n)
		for q := 0; q < n; q++ {
			e.depositions[p][q] = prim.NewVar(int64(0))
		}
	}
	for p := 0; p < n; p++ {
		p := p
		sub.Spawn(p, fmt.Sprintf("nerio[%d]", p), func(proc prim.Proc) {
			nerioTask(proc, n, e.instances[p], epoch, lease, e.depositions[p], opts)
		})
	}
	return e, nil
}

func (e *nerioElector) Name() string                 { return e.name }
func (e *nerioElector) Instances() []*omega.Instance { return e.instances }
func (e *nerioElector) Leaders() []int               { return leaderVector(e.instances) }
func (e *nerioElector) FaultMatrix() ([][]int64, bool) {
	n := len(e.instances)
	out := make([][]int64, n)
	for p := 0; p < n; p++ {
		out[p] = make([]int64, n)
		for q := 0; q < n; q++ {
			out[p][q] = e.depositions[p][q].Get()
		}
	}
	return out, true
}

// nerioTask is one process's main loop. Non-candidates output ? and stay
// out of the protocol entirely (the Figure 3 idiom); candidates follow the
// epoch, the incumbent renews its lease once per loop, and observers count
// missed renewals against their adaptive patience.
func nerioTask(proc prim.Proc, n int, inst *omega.Instance,
	epochReg prim.Register[int64], lease []prim.Register[int64],
	depose []*prim.Var[int64], opts NerioOptions) {
	me := inst.Me
	var (
		epoch     int64
		leaseVal  int64 // my own lease counter, monotone across candidacies
		lastLease int64 = -1
		miss      int64
		patience  int64 = nerioInitialPatience
	)
	for {
		inst.Leader.Set(omega.NoLeader)
		inst.Candidate.Await(proc, prim.IsTrue)
		for inst.Candidate.Get() {
			if e := epochReg.Read(); e != epoch {
				epoch = e
				lastLease = -1
				miss = 0
			}
			ell := int(epoch % int64(n))
			inst.Leader.Set(ell)
			if ell == me {
				leaseVal++
				lease[me].Write(leaseVal)
			} else {
				v := lease[ell].Read()
				if v != lastLease {
					lastLease = v
					miss = 0
				} else if miss++; miss > patience && !opts.NoDepose {
					// Depose: advance the epoch iff nobody else already
					// has. Two racing deposers write the same successor, so
					// the epoch advances by exactly one either way.
					if cur := epochReg.Read(); cur == epoch {
						epochReg.Write(epoch + 1)
						depose[ell].Set(depose[ell].Get() + 1)
						patience *= 2
					}
					miss = 0
				}
			}
			proc.Step()
		}
	}
}
