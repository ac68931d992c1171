package net

import (
	"fmt"
	stdnet "net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tbwf/internal/prim"
)

// The TCP transport: real sockets between one OS process per replica.
// Each client process keeps one connection per peer node, managed by a
// writer goroutine that dials with backoff and a reader goroutine that
// feeds replies back to the engine. A connection carries length-prefixed
// binary frames (frame.go) and owns its codec state, which is made when
// the connection is and dropped with it, so a reconnect starts both sides
// afresh. Whatever is queued for a peer goes out in one write, and a node
// answers every request it has already read before it writes the replies;
// neither side ever waits for more. Loss is embraced rather than masked: a
// send to a dead, slow, or blocked peer is dropped and the engine's
// retransmit loop recovers, the same mechanism that rides out partitions
// on the fabric.

// TCPConfig shapes the TCP transport.
type TCPConfig struct {
	// Peers lists the replica node addresses, indexed by node id. Length
	// must equal the substrate's N.
	Peers []string
	// RetransmitEvery is how long an operation waits for its quorum before
	// resending to non-responding nodes (default 50ms).
	RetransmitEvery time.Duration
	// DialBackoffMax caps the reconnect backoff (default 2s; starts at
	// 100ms and doubles).
	DialBackoffMax time.Duration
	// OutboxDepth bounds each peer's send queue (default 1024); sends
	// beyond it drop, and retransmission recovers.
	OutboxDepth int
}

// TCP is the socket transport for a net substrate.
type TCP struct {
	e        *engine
	n        int
	stopping <-chan struct{}
	cfg      TCPConfig
	out      []chan Request
	blocked  []atomic.Bool
	sent     atomic.Int64
	dropped  atomic.Int64

	encMu     sync.Mutex
	encErr    error // the first value that could not be encoded
	encFailed int64
}

// NewTCP builds a net substrate whose transport is real TCP. host drives
// the tasks (typically an rt.Runtime); stopping ends the transport's
// goroutines and unwinds parked operations. One replica node per process:
// cfg.Only selects which process's tasks this OS process animates (-1 for
// a single-process loopback deploy that runs them all).
func NewTCP(host interface {
	prim.Spawner
	N() int
}, stopping <-chan struct{}, tcfg TCPConfig, cfg Config) (*Substrate, *TCP, error) {
	if len(tcfg.Peers) != host.N() {
		return nil, nil, fmt.Errorf("net: %d peers for n=%d", len(tcfg.Peers), host.N())
	}
	if tcfg.RetransmitEvery <= 0 {
		tcfg.RetransmitEvery = 50 * time.Millisecond
	}
	if tcfg.DialBackoffMax <= 0 {
		tcfg.DialBackoffMax = 2 * time.Second
	}
	if tcfg.OutboxDepth <= 0 {
		tcfg.OutboxDepth = 1024
	}
	t := &TCP{
		n:        host.N(),
		stopping: stopping,
		cfg:      tcfg,
		out:      make([]chan Request, host.N()),
		blocked:  make([]atomic.Bool, host.N()),
	}
	sub, err := newSubstrate(host, t, cfg)
	if err != nil {
		return nil, nil, err
	}
	t.e = sub.e
	for i := range t.out {
		t.out[i] = make(chan Request, tcfg.OutboxDepth)
		go t.peerLoop(i)
	}
	return sub, t, nil
}

// Block severs (or restores) the link to one peer node: blocked sends are
// dropped before they reach the socket. It is the live partition-
// injection hook for serve deploys.
func (t *TCP) Block(node int, blocked bool) {
	if node >= 0 && node < t.n {
		t.blocked[node].Store(blocked)
	}
}

// Sent and Dropped report transport telemetry: requests accepted into a
// peer's outbox, and requests refused there or lost on the way out.
func (t *TCP) Sent() int64    { return t.sent.Load() }
func (t *TCP) Dropped() int64 { return t.dropped.Load() }

// EncodeErrors reports how many requests were dropped because their value
// could not be encoded, and the first such error. Retransmission cannot
// recover these — the operation that wrote the value waits for good — so
// the first one also goes to standard error.
func (t *TCP) EncodeErrors() (int64, error) {
	t.encMu.Lock()
	defer t.encMu.Unlock()
	return t.encFailed, t.encErr
}

func (t *TCP) encodeFailed(err error) {
	t.dropped.Add(1)
	t.encMu.Lock()
	defer t.encMu.Unlock()
	if t.encFailed++; t.encErr == nil {
		t.encErr = err
		fmt.Fprintf(os.Stderr, "%v; the request is dropped and its operation waits (later ones are only counted)\n", err)
	}
}

// send implements transport. TCP cannot attribute the sending task to a
// process, so Src stays -1 (the same contract that keeps Op.Proc at -1).
func (t *TCP) send(req Request) {
	req.Src = -1
	if t.blocked[req.To].Load() {
		t.dropped.Add(1)
		return
	}
	select {
	case t.out[req.To] <- req:
		t.sent.Add(1)
	default:
		t.dropped.Add(1)
	}
}

// parkTimers recycles park's retransmit timers, one per quorum phase
// otherwise. A timer in the pool is stopped, so its channel is empty.
var parkTimers sync.Pool

// park implements transport: wait for the quorum, a retransmit deadline,
// or shutdown.
func (t *TCP) park(p *pending) bool {
	timer, _ := parkTimers.Get().(*time.Timer)
	if timer == nil {
		timer = time.NewTimer(t.cfg.RetransmitEvery)
	} else {
		timer.Reset(t.cfg.RetransmitEvery)
	}
	defer func() {
		timer.Stop()
		parkTimers.Put(timer)
	}()
	select {
	case <-p.ready:
		return false
	case <-t.stopping:
		prim.ExitTask("net: transport stopped")
		return false
	case <-timer.C:
		return true
	}
}

// peerLoop owns the connection to one peer node: dial with backoff, pump
// the outbox through it, feed replies back, redial on any error.
func (t *TCP) peerLoop(node int) {
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-t.stopping:
			return
		default:
		}
		conn, err := stdnet.DialTimeout("tcp", t.cfg.Peers[node], time.Second)
		if err != nil {
			select {
			case <-t.stopping:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > t.cfg.DialBackoffMax {
				backoff = t.cfg.DialBackoffMax
			}
			continue
		}
		backoff = 100 * time.Millisecond
		t.pump(node, conn)
	}
}

// pump writes outbox frames and reads reply frames until either direction
// fails or the transport stops.
func (t *TCP) pump(node int, conn stdnet.Conn) {
	defer conn.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		dec := newDecoder(conn)
		for {
			f, err := dec.next()
			if err != nil {
				return
			}
			t.e.onReply(f.reply())
		}
	}()
	enc := newEncoder()
	for {
		var req Request
		select {
		case <-t.stopping:
			return
		case <-done:
			return
		case req = <-t.out[node]:
		}
		// One write per burst: frame what is queued by now and flush when
		// the outbox is momentarily empty, without waiting for more.
		framed := int64(0)
		for {
			if err := enc.append(req.frame()); err != nil {
				t.encodeFailed(err)
			} else {
				framed++
			}
			if len(enc.buf) < burstBytes {
				select {
				case req = <-t.out[node]:
					continue
				default:
				}
			}
			break
		}
		if err := enc.flush(conn); err != nil {
			// The requests are lost with the connection; retransmission
			// re-issues them once we redial.
			t.dropped.Add(framed)
			return
		}
	}
}

// NodeServer hosts one replica node behind a TCP listener.
type NodeServer struct {
	node *Node
	ln   stdnet.Listener

	mu    sync.Mutex
	conns map[stdnet.Conn]struct{}
	done  bool
}

// ListenNode serves node on addr (use "127.0.0.1:0" to pick a free port;
// Addr reports the bound address). Each accepted connection is a
// request→reply loop: decode a Request frame, Handle it, write the Reply.
func ListenNode(addr string, node *Node) (*NodeServer, error) {
	ln, err := stdnet.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &NodeServer{node: node, ln: ln, conns: make(map[stdnet.Conn]struct{})}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's bound address.
func (s *NodeServer) Addr() string { return s.ln.Addr().String() }

// Node returns the replica this server hosts.
func (s *NodeServer) Node() *Node { return s.node }

// Close stops the listener and all live connections.
func (s *NodeServer) Close() {
	s.mu.Lock()
	s.done = true
	conns := make([]stdnet.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

func (s *NodeServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *NodeServer) serveConn(conn stdnet.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	dec, enc := newDecoder(conn), newEncoder()
	for {
		f, err := dec.next()
		if err != nil {
			return
		}
		rep := s.node.Handle(f.request())
		// A reply's value arrived in a request, so it encodes; if it does
		// not, the client must not wait on a connection that cannot answer.
		if err := enc.append(rep.frame()); err != nil {
			return
		}
		// One write per burst: answer every request already read first.
		if dec.buffered() && len(enc.buf) < burstBytes {
			continue
		}
		if err := enc.flush(conn); err != nil {
			return
		}
	}
}
