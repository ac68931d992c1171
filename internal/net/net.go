// Package net is the message-passing substrate: a third prim.Substrate
// whose atomic and abortable registers are implemented by ABD-style
// majority replication over a pluggable transport, so the single
// composition root (internal/deploy) assembles every stack — the four
// object types, all registered electors, the abortable Ω∆ — on a set of
// replicas connected only by messages.
//
// The protocol is the classic two-phase quorum dance (Attiya, Bar-Noy,
// Dolev): a read phase collects (timestamp, value) pairs from a read
// quorum and takes the maximum; a write phase pushes a timestamped value
// to a write quorum (the written value for writes, the maximum back for
// reads, which is what makes reads linearizable). Timestamps are
// (counter, tag) pairs where the tag encodes the writing engine and its
// operation sequence, so concurrent writes at the same counter still have
// a total order. With both quorums a majority the registers are atomic
// under any pattern of message delay, loss, duplication and
// minority-isolating partition; shrinking the read quorum below the
// overlap threshold (Config.ReadQuorum = 1) is the fuzz campaign's
// quorum-breaking ablation.
//
// Abortable registers layer the paper's contention semantics on top: a
// read-phase quorum that disagrees on the timestamp reveals a write in
// flight, and a write-phase reply whose prior timestamp exceeds the
// operation's basis reveals a write that landed mid-operation. At either
// conflict point the engine consults the register's AbortPolicy —
// with Op.Proc = -1, since a quorum protocol cannot attribute the
// *other* operation (and on TCP not even its own) to a process — and, for
// conflicts seen before the write phase, the EffectPolicy decides whether
// the aborted write still goes out. A conflict that only surfaces in the
// write-phase replies aborts the operation after its effect, which the
// abortable-register contract explicitly allows ("an aborted write may or
// may not take effect").
//
// Two transports implement the seam: Fabric, an in-process deterministic
// network driven by the simulation kernel's scheduler with seeded
// per-link delays and injectable partition/reorder/duplicate/drop faults
// (fully replayable by the fuzzer's Plan machinery), and TCP, real
// sockets with length-prefixed binary frames, codec state that lives and
// dies with its connection, and per-peer reconnect, so tbwf-serve deploys
// one replica per OS process.
package net

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tbwf/internal/prim"
)

// Config shapes a net substrate.
type Config struct {
	// ReadQuorum and WriteQuorum size the two phases' reply quorums; 0
	// means a majority (n/2+1). Linearizability needs
	// ReadQuorum+WriteQuorum > n; smaller read quorums are deliberate
	// ablations for the fuzz campaign.
	ReadQuorum, WriteQuorum int
	// Restrict limits Spawn to process Only. The distributed TCP deploy
	// runs one replica per OS process: each process builds the full stack
	// but only animates its own process's tasks. The zero value spawns
	// everything.
	Restrict bool
	Only     int
}

// hostSub is what the substrate needs from its host: task scheduling.
// Both sim.Kernel and rt.Runtime satisfy it.
type hostSub interface {
	prim.Spawner
	N() int
}

// transport carries protocol messages and parks waiting operations.
type transport interface {
	// send ships one request towards req.To; it may drop it (faults, dead
	// peers) — the engine's retransmit loop recovers.
	send(req Request)
	// park blocks or yields the calling task once; it returns true when
	// the engine should retransmit the operation's outstanding requests.
	park(p *pending) bool
}

// Substrate is a prim.Substrate whose registers are ABD-replicated over a
// transport. It deliberately does NOT expose a SimKernel capability even
// when fabric-hosted: the typed fast paths in internal/register must not
// bypass the quorum registers.
type Substrate struct {
	host hostSub
	e    *engine
	only int
}

var _ prim.Substrate = (*Substrate)(nil)

// newSubstrate validates cfg and wires the engine; the transport is
// installed by the transport-specific constructors.
func newSubstrate(host hostSub, tr transport, cfg Config) (*Substrate, error) {
	n := host.N()
	if n < 2 {
		return nil, fmt.Errorf("net: n = %d, need at least 2 replicas", n)
	}
	rq, wq := cfg.ReadQuorum, cfg.WriteQuorum
	if rq == 0 {
		rq = n/2 + 1
	}
	if wq == 0 {
		wq = n/2 + 1
	}
	if rq < 1 || rq > n || wq < 1 || wq > n {
		return nil, fmt.Errorf("net: quorums %d/%d out of range for n=%d", rq, wq, n)
	}
	only := -1
	if cfg.Restrict {
		if cfg.Only < 0 || cfg.Only >= n {
			return nil, fmt.Errorf("net: only=%d out of range for n=%d", cfg.Only, n)
		}
		only = cfg.Only
	}
	id := 0
	if only >= 0 {
		id = only
	}
	e := &engine{
		n:      n,
		id:     int64(id),
		tr:     tr,
		readQ:  rq,
		writeQ: wq,
		pend:   make(map[uint64]*pending),
	}
	return &Substrate{host: host, e: e, only: only}, nil
}

// Spawn implements prim.Spawner, filtered to the local process in
// one-replica-per-OS-process deploys. The task sees the host's Proc: one
// that cannot park (the simulation kernel under the fabric) is handed over
// as it is, so simulated schedules are the host's; one that can (rt under
// TCP) parks without lingering.
func (s *Substrate) Spawn(proc int, name string, fn func(p prim.Proc)) {
	if s.only >= 0 && proc != s.only {
		return
	}
	s.host.Spawn(proc, name, func(p prim.Proc) {
		if pk, ok := p.(prim.Parker); ok {
			p = eagerParker{p, pk}
		}
		fn(p)
	})
}

// eagerParker is a host task that parks on an unsatisfied local wait at
// once. After such a wait a net task runs quorum rounds over sockets, and
// a task that lingers — stepping through Gosched — keeps every P of the Go
// runtime busy, which leaves the sockets to sysmon's poll every 10 ms.
type eagerParker struct {
	prim.Proc
	prim.Parker
}

func (eagerParker) Linger() time.Duration { return 0 }

// N returns the number of processes (= replica nodes).
func (s *Substrate) N() int { return s.e.n }

// SubstrateName identifies the substrate for telemetry.
func (s *Substrate) SubstrateName() string { return "net" }

// NewRegisterAny creates a named atomic quorum register.
func (s *Substrate) NewRegisterAny(name string, init any) prim.Register[any] {
	return &Atomic{reg: reg{e: s.e, name: name, init: init}}
}

// NewAbortableAny creates a named abortable quorum register honoring the
// shared abort/effect policy vocabulary.
func (s *Substrate) NewAbortableAny(name string, init any, opts ...prim.AbOption) prim.AbortableRegister[any] {
	return &Abortable{reg: reg{e: s.e, name: name, init: init}, cfg: prim.ApplyAbOptions(opts...)}
}

// Quorums returns the effective (read, write) quorum sizes.
func (s *Substrate) Quorums() (int, int) { return s.e.readQ, s.e.writeQ }

// pending is one in-flight broadcast phase: the engine waits until `need`
// distinct nodes have replied.
type pending struct {
	op      uint64
	need    int
	replies []Reply       // at most one per node, in order of arrival
	ready   chan struct{} // closed when the quorum is complete (TCP park)
	parks   int64         // fabric park counter, drives retransmits
}

// engine runs the client half of the protocol: it broadcasts phases,
// matches replies, and retransmits to non-responding nodes. One engine is
// shared by every register of a substrate instance; on the fabric all
// operations run under the single-threaded kernel, on TCP the mutex earns
// its keep.
type engine struct {
	n      int
	id     int64 // engine identity, folded into write tags
	tr     transport
	readQ  int
	writeQ int

	mu   sync.Mutex
	seq  uint64
	pend map[uint64]*pending
}

// next allocates a broadcast/op sequence number.
func (e *engine) next() uint64 {
	e.mu.Lock()
	e.seq++
	s := e.seq
	e.mu.Unlock()
	return s
}

// tag builds a globally unique write tag: engine identity in the low
// bits, the engine-local sequence above. Engines are replica-indexed
// (< 256 in any sane deploy), so tags from different engines never
// collide.
func (e *engine) tag(seq uint64) int64 {
	return int64(seq)<<8 | (e.id & 0xff)
}

// onReply delivers one node reply; transports call it from their receive
// path.
func (e *engine) onReply(r Reply) {
	e.mu.Lock()
	p := e.pend[r.Op]
	if p != nil && !p.heard(r.Node) {
		p.replies = append(p.replies, r)
		if len(p.replies) == p.need {
			close(p.ready)
		}
	}
	e.mu.Unlock()
}

// heard reports whether node has replied. Callers hold the engine's lock.
func (p *pending) heard(node int) bool {
	for i := range p.replies {
		if p.replies[i].Node == node {
			return true
		}
	}
	return false
}

// broadcast runs one phase: fan a request out to every node and park until
// `need` distinct replies are in, retransmitting to the laggards whenever
// the transport says the operation has waited long enough.
func (e *engine) broadcast(reg string, phase uint8, ts Timestamp, val any, need int) []Reply {
	op := e.next()
	p := &pending{op: op, need: need, replies: make([]Reply, 0, e.n), ready: make(chan struct{})}
	e.mu.Lock()
	e.pend[op] = p
	e.mu.Unlock()
	req := Request{Op: op, Phase: phase, Reg: reg, Client: int(e.id), TS: ts, Val: val}
	for q := 0; q < e.n; q++ {
		req.To = q
		e.tr.send(req)
	}
	for {
		e.mu.Lock()
		if len(p.replies) >= need {
			reps := p.replies
			delete(e.pend, op)
			e.mu.Unlock()
			return reps
		}
		e.mu.Unlock()
		if e.tr.park(p) {
			for q := 0; q < e.n; q++ {
				e.mu.Lock()
				have := p.heard(q)
				e.mu.Unlock()
				if !have {
					req.To = q
					e.tr.send(req)
				}
			}
		}
	}
}

// summarize reduces a read-phase quorum to the freshest (ts, val) pair,
// and reports whether any replying node held a written value and whether
// the quorum disagreed on the timestamp (the in-flight-write signal).
// All reductions are order-independent, so the order replies arrived in
// does not show.
func summarize(reps []Reply) (ts Timestamp, val any, has, disagree bool) {
	first := true
	for _, r := range reps {
		if r.Has {
			has = true
		}
		if first {
			ts, val, first = r.TS, r.Val, false
			continue
		}
		if r.TS != ts {
			disagree = true
		}
		if ts.Less(r.TS) {
			ts, val = r.TS, r.Val
		}
	}
	return ts, val, has, disagree
}

// reg is the shared half of both register flavors.
type reg struct {
	e    *engine
	name string
	init any

	ops    atomic.Int64 // per-register operation sequence, for policy Ops
	reads  atomic.Int64
	writes atomic.Int64
	rAbort atomic.Int64
	wAbort atomic.Int64
}

// Name returns the register's name.
func (r *reg) Name() string { return r.name }

// Stats returns the register's client-side operation counters.
func (r *reg) Stats() prim.Stats {
	return prim.Stats{
		Reads:       r.reads.Load(),
		Writes:      r.writes.Load(),
		ReadAborts:  r.rAbort.Load(),
		WriteAborts: r.wAbort.Load(),
	}
}

// readPhase runs the read phase and substitutes the initial value when no
// node has been written yet.
func (r *reg) readPhase() (ts Timestamp, val any, has, disagree bool) {
	ts, val, has, disagree = summarize(r.e.broadcast(r.name, phaseRead, Timestamp{}, nil, r.e.readQ))
	if !has {
		val = r.init
	}
	return ts, val, has, disagree
}

// Atomic is an ABD atomic register: reads write back the maximum they
// found, so non-concurrent reads never run backwards.
type Atomic struct{ reg }

var _ prim.Register[any] = (*Atomic)(nil)

// Read returns the register's current value.
func (r *Atomic) Read() any {
	r.reads.Add(1)
	r.ops.Add(1)
	ts, val, has, _ := r.readPhase()
	if has {
		// Write-back: once this read returns v, every later read finds a
		// timestamp >= ts in its own quorum.
		r.e.broadcast(r.name, phaseWrite, ts, val, r.e.writeQ)
	}
	return val
}

// Write replaces the register's value.
func (r *Atomic) Write(v any) {
	r.writes.Add(1)
	r.ops.Add(1)
	seq := r.e.next()
	ts, _, _, _ := r.readPhase()
	nt := Timestamp{C: ts.C + 1, Tag: r.e.tag(seq)}
	r.e.broadcast(r.name, phaseWrite, nt, v, r.e.writeQ)
}

// Abortable is the quorum register with the paper's contention semantics.
type Abortable struct {
	reg
	cfg prim.AbConfig
}

var _ prim.AbortableRegister[any] = (*Abortable)(nil)

// policyOp builds the Op handed to abort/effect policies. Proc is always
// -1: a quorum engine cannot attribute the conflicting operation — and on
// TCP not even its own — to a process, and the documented contract for
// such substrates is -1, never a fabricated id.
func (r *Abortable) policyOp(isWrite bool, seq int64) prim.Op {
	return prim.Op{Register: r.name, Proc: -1, IsWrite: isWrite, Step: seq}
}

// Read returns the value, or ok=false when contention aborted it. The
// write-back still repairs the quorum either way, so an aborted read
// leaves the register cleaner than it found it.
func (r *Abortable) Read() (any, bool) {
	r.reads.Add(1)
	seq := r.ops.Add(1)
	ts, val, has, disagree := r.readPhase()
	contended := disagree
	if has {
		for _, rp := range r.e.broadcast(r.name, phaseWrite, ts, val, r.e.writeQ) {
			if ts.Less(rp.TS) {
				contended = true // a write landed between the phases
			}
		}
	}
	if contended && r.cfg.Abort.Abort(r.policyOp(false, seq)) {
		r.rAbort.Add(1)
		return nil, false
	}
	return val, true
}

// Write replaces the value, or returns false when contention aborted it.
func (r *Abortable) Write(v any) bool {
	r.writes.Add(1)
	seq := r.ops.Add(1)
	op := r.policyOp(true, seq)
	wseq := r.e.next()
	ts, _, _, disagree := r.readPhase()
	nt := Timestamp{C: ts.C + 1, Tag: r.e.tag(wseq)}
	if disagree && r.cfg.Abort.Abort(op) {
		// Conflict seen before the write phase: the effect policy decides
		// whether the aborted write still goes out.
		if r.cfg.Effect.TakesEffect(op) {
			r.e.broadcast(r.name, phaseWrite, nt, v, r.e.writeQ)
		}
		r.wAbort.Add(1)
		return false
	}
	late := false
	for _, rp := range r.e.broadcast(r.name, phaseWrite, nt, v, r.e.writeQ) {
		if nt.Less(rp.TS) {
			late = true // a concurrent write beat us to a node
		}
	}
	if late && r.cfg.Abort.Abort(op) {
		// The conflict only surfaced in the write-phase replies: the write
		// took effect, which the contract allows for aborted writes.
		r.wAbort.Add(1)
		return false
	}
	return true
}
