package net

// The wire vocabulary of the ABD protocol: every register operation is one
// or two broadcast phases, each a Request fanned out to the replica nodes
// and a quorum of Replies collected back. The same structs cross both
// transports — in-process envelopes on the deterministic fabric, binary
// frames on TCP (frame.go) — so the protocol code is transport-blind.

// Timestamp orders writes. C is the ABD counter; Tag breaks ties between
// writes that picked the same counter concurrently (it encodes the writing
// engine and its operation sequence, so it is globally unique and the
// order on Timestamps is total).
type Timestamp struct {
	C   int64
	Tag int64
}

// Less is the total order on timestamps.
func (t Timestamp) Less(o Timestamp) bool {
	return t.C < o.C || (t.C == o.C && t.Tag < o.Tag)
}

// IsZero reports whether the timestamp predates every write.
func (t Timestamp) IsZero() bool { return t.C == 0 && t.Tag == 0 }

// Request phases. A read-phase request collects (timestamp, value) pairs;
// a write-phase request asks the node to advance the register to (TS, Val)
// if that is newer than what it holds.
const (
	phaseRead  uint8 = 1
	phaseWrite uint8 = 2
)

// Request is one client-to-node protocol message.
type Request struct {
	// Op identifies the broadcast: replies echo it so the engine can match
	// them to the waiting operation. Each phase is its own broadcast.
	Op uint64
	// Phase is phaseRead or phaseWrite.
	Phase uint8
	// Reg names the register.
	Reg string
	// To is the destination node.
	To int
	// Src is the sending process, used by the fabric for link-level fault
	// (partition) decisions; -1 when the transport cannot attribute (TCP).
	Src int
	// Client identifies the sending engine, for reply routing on
	// transports that need it.
	Client int
	// TS and Val carry the write-phase payload; unused on reads.
	TS  Timestamp
	Val any
}

// Reply is one node-to-client protocol message.
type Reply struct {
	// Op and Phase echo the request.
	Op    uint64
	Phase uint8
	// Node is the replying node.
	Node int
	// Src echoes the request's source process for fabric routing.
	Src int
	// TS is the node's timestamp: current on reads, prior (pre-apply) on
	// writes — the write-phase conflict signal.
	TS Timestamp
	// Val is the node's value on reads.
	Val any
	// Has reports whether the node holds a written value (TS is non-zero).
	Has bool
}
