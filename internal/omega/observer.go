package omega

// Observer samples every process's leader output once per simulation step
// (attach Sample via Kernel.AfterStep) and tracks when the leader vector
// last changed — the run's stabilization point. It reads the Instances'
// output variables directly, so it consumes no simulation steps and does
// not perturb timeliness.
type Observer struct {
	instances []*Instance
	last      []int
	// lastChange is the latest step at which any leader output changed.
	lastChange int64
	// changes counts leader-output transitions (per process, summed):
	// a measure of election churn.
	changes int64
}

// NewObserver returns an observer over the given per-process endpoints.
func NewObserver(instances []*Instance) *Observer {
	last := make([]int, len(instances))
	for i := range last {
		last[i] = NoLeader
	}
	return &Observer{instances: instances, last: last}
}

// Sample records the current leader outputs; call it from an AfterStep
// hook.
func (o *Observer) Sample(step int64) {
	for p, inst := range o.instances {
		cur := inst.Leader.Get()
		if cur != o.last[p] {
			o.last[p] = cur
			o.lastChange = step
			o.changes++
		}
	}
}

// Leaders returns the most recently sampled leader vector.
func (o *Observer) Leaders() []int {
	out := make([]int, len(o.last))
	copy(out, o.last)
	return out
}

// StabilizedAt returns the step after which no leader output changed.
func (o *Observer) StabilizedAt() int64 { return o.lastChange }

// Changes returns the total number of leader-output transitions observed.
func (o *Observer) Changes() int64 { return o.changes }

// AgreedLeader returns the leader every process in procs currently outputs,
// or NoLeader if they disagree (outputs of processes not in procs are
// ignored).
func (o *Observer) AgreedLeader(procs []int) int {
	leader := NoLeader
	for _, p := range procs {
		v := o.last[p]
		if leader == NoLeader {
			leader = v
		}
		if v != leader {
			return NoLeader
		}
	}
	return leader
}
