package omega

import (
	"fmt"

	"tbwf/internal/monitor"
	"tbwf/internal/prim"
)

// Deployment is a fully wired Ω∆ over atomic registers on any substrate:
// per-process endpoints, the n(n−1) activity monitors, and the shared
// counter registers. The monitor and Figure 3 tasks are already spawned.
type Deployment struct {
	N int
	// Instances[p] is process p's Ω∆ endpoint.
	Instances []*Instance
	// Monitors[p][q] is A(p,q); the diagonal is nil.
	Monitors [][]*monitor.Pair
	// CounterReg[q] is the shared CounterRegister[q].
	CounterReg []prim.Register[int64]
}

// BuildOptions collects the optional knobs of BuildWith.
type BuildOptions struct {
	// AblateSelfPunishment disables Figure 3's self-punishment rule
	// (RegistersConfig.AblateSelfPunishment) — the A2 ablation,
	// experiments only.
	AblateSelfPunishment bool
}

// BuildWith wires the Figure 2 + Figure 3 stack for n processes on an
// arbitrary substrate: sp spawns the tasks, newReg creates the shared
// atomic registers (heartbeat registers and counter registers). For every
// ordered pair (p,q) it spawns the monitoring task of A(p,q) on p and the
// monitored task on q, plus each process's Ω∆ main loop.
func BuildWith(n int, sp prim.Spawner, newReg func(name string, init int64) prim.Register[int64], opts BuildOptions) (*Deployment, error) {
	if n < 2 {
		return nil, fmt.Errorf("omega: n = %d, need at least 2 processes", n)
	}
	if sp == nil || newReg == nil {
		return nil, fmt.Errorf("omega: nil spawner or register factory")
	}
	d := &Deployment{
		N:          n,
		Instances:  make([]*Instance, n),
		Monitors:   make([][]*monitor.Pair, n),
		CounterReg: make([]prim.Register[int64], n),
	}
	for p := 0; p < n; p++ {
		d.Instances[p] = NewInstance(p)
		d.Monitors[p] = make([]*monitor.Pair, n)
		d.CounterReg[p] = newReg(fmt.Sprintf("CounterRegister[%d]", p), 0)
	}
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if p == q {
				continue
			}
			hb := newReg(fmt.Sprintf("HbRegister[%d,%d]", q, p), -1)
			m := monitor.NewPair(p, q, hb)
			d.Monitors[p][q] = m
			sp.Spawn(q, fmt.Sprintf("A(%d,%d).monitored", p, q), m.MonitoredTask())
			sp.Spawn(p, fmt.Sprintf("A(%d,%d).monitoring", p, q), m.MonitoringTask())
		}
	}
	for p := 0; p < n; p++ {
		cfg := RegistersConfig{
			N:                    n,
			Me:                   p,
			Endpoint:             d.Instances[p],
			Monitoring:           make([]*prim.Var[bool], n),
			Status:               make([]*prim.Var[monitor.Status], n),
			FaultCntr:            make([]*prim.Var[int64], n),
			ActiveFor:            make([]*prim.Var[bool], n),
			CounterReg:           d.CounterReg,
			AblateSelfPunishment: opts.AblateSelfPunishment,
		}
		for q := 0; q < n; q++ {
			if q == p {
				continue
			}
			cfg.Monitoring[q] = d.Monitors[p][q].Monitoring
			cfg.Status[q] = d.Monitors[p][q].Status
			cfg.FaultCntr[q] = d.Monitors[p][q].FaultCntr
			cfg.ActiveFor[q] = d.Monitors[q][p].ActiveFor
		}
		task, err := RegistersTask(cfg)
		if err != nil {
			return nil, fmt.Errorf("wire process %d: %w", p, err)
		}
		sp.Spawn(p, fmt.Sprintf("omega[%d]", p), task)
	}
	return d, nil
}

// Leaders returns the current leader output of every process — a
// telemetry tap; it consumes no process steps.
func (d *Deployment) Leaders() []int {
	out := make([]int, d.N)
	for p := range out {
		out[p] = d.Instances[p].Leader.Get()
	}
	return out
}

// FaultMatrix returns the current faultCntr_p[q] matrix (diagonal 0): how
// many times each monitoring process has suspected each monitored one of
// not being timely. A telemetry tap; it consumes no process steps.
func (d *Deployment) FaultMatrix() [][]int64 {
	out := make([][]int64, d.N)
	for p := 0; p < d.N; p++ {
		out[p] = make([]int64, d.N)
		for q := 0; q < d.N; q++ {
			if m := d.Monitors[p][q]; m != nil {
				out[p][q] = m.FaultCntr.Get()
			}
		}
	}
	return out
}
