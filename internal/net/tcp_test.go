package net

import (
	"fmt"
	"io"
	stdnet "net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tbwf/internal/elector"
	"tbwf/internal/elector/electortest"
	"tbwf/internal/prim"
	"tbwf/internal/prim/primtest"
	"tbwf/internal/rt"
	"tbwf/internal/sim"
)

// tcpFixture is a single-OS-process loopback deploy: an rt runtime hosts
// the tasks of all three processes, and three replica nodes listen on
// loopback TCP sockets.
type tcpFixture struct {
	rt   *rt.Runtime
	sub  *Substrate
	tr   *TCP
	srvs []*NodeServer
}

func newTCPFixture(t *testing.T, cfg Config) *tcpFixture {
	t.Helper()
	f := &tcpFixture{}
	peers := make([]string, 3)
	for i := range peers {
		peers[i] = f.listen(t, i)
	}
	f.connect(t, peers, cfg)
	return f
}

// listen starts replica node i on a loopback port and returns its address.
func (f *tcpFixture) listen(t *testing.T, i int) string {
	t.Helper()
	srv, err := ListenNode("127.0.0.1:0", NewNode(i))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	f.srvs = append(f.srvs, srv)
	return srv.Addr()
}

// connect builds the runtime and the substrate over the nodes at peers.
func (f *tcpFixture) connect(t *testing.T, peers []string, cfg Config) {
	t.Helper()
	f.rt = rt.New(len(peers), nil)
	var err error
	f.sub, f.tr, err = NewTCP(f.rt, f.rt.Stopping(), TCPConfig{
		Peers:           peers,
		RetransmitEvery: 5 * time.Millisecond,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.rt.Stop(); err != nil {
			t.Errorf("runtime stop: %v", err)
		}
	})
}

// unwound is deferred by a goroutine that runs register operations
// off-task: the fixture's Stop unwinds, by a task exit, an operation that
// a failed test left waiting.
func unwound() {
	if r := recover(); r != nil && !prim.RecoverTaskExit(r) {
		panic(r)
	}
}

// within runs op, a register operation, off-task and fails the test if it
// has not returned in time.
func within(t *testing.T, d time.Duration, what string, op func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer unwound()
		op()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not complete in %v", what, d)
	}
}

func pollDone(timeout time.Duration) func(done func() bool) error {
	return func(done func() bool) error {
		deadline := time.Now().Add(timeout)
		for !done() {
			if time.Now().After(deadline) {
				return fmt.Errorf("done condition not reached in %v", timeout)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
}

// The TCP-backed net substrate passes the prim conformance suite. CI runs
// this package under -race, which makes the suite double as a data-race
// check on the engine, the per-peer outboxes, and the node servers.
func TestTCPSubstrateConformance(t *testing.T) {
	primtest.Run(t, func(t *testing.T) *primtest.Harness {
		f := newTCPFixture(t, Config{})
		return &primtest.Harness{
			Sub:   f.sub,
			Run:   pollDone(20 * time.Second),
			Crash: f.rt.Crash,
		}
	})
}

// The Figure 3 elector passes the elector conformance suite over real TCP
// sockets — same algorithm code, third substrate. One elector keeps the
// wall-clock cost bounded; the full bake-off matrix runs on the
// deterministic fabric (TestElectorConformanceFabric).
func TestTCPElectorConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("elector over TCP loopback needs wall-clock seconds; skipped in -short mode")
	}
	electortest.Run(t, elector.Atomic, func(t *testing.T) *electortest.Harness {
		f := newTCPFixture(t, Config{})
		return &electortest.Harness{
			Sub: f.sub,
			Run: pollDone(60 * time.Second),
		}
	})
}

// Block severs links at the transport: with a majority of replicas still
// reachable operations keep completing, and once too few remain the next
// operation stalls until the link is restored — the live partition-
// injection hook the serve layer exposes.
func TestTCPBlockPartitionsAndRecovers(t *testing.T) {
	f := newTCPFixture(t, Config{})
	reg := prim.NewRegister[int64](f.sub, "b", 0)
	step := make(chan struct{})
	vals := make(chan int64, 3)
	f.sub.Spawn(0, "prober", func(p prim.Proc) {
		for range step {
			reg.Write(1)
			vals <- reg.Read()
		}
	})
	next := func() int64 {
		t.Helper()
		step <- struct{}{}
		select {
		case v := <-vals:
			return v
		case <-time.After(10 * time.Second):
			t.Fatal("operation stalled")
			return 0
		}
	}
	if v := next(); v != 1 {
		t.Fatalf("read %d, want 1", v)
	}
	f.tr.Block(2, true) // one replica down: majority remains
	if v := next(); v != 1 {
		t.Fatalf("read %d with one node blocked, want 1", v)
	}
	f.tr.Block(1, true) // two down: no quorum — must stall
	stalled := make(chan struct{})
	go func() {
		step <- struct{}{}
		<-vals
		close(stalled)
	}()
	select {
	case <-stalled:
		t.Fatal("quorum operation completed with a majority of replicas blocked")
	case <-time.After(200 * time.Millisecond):
	}
	f.tr.Block(1, false)
	f.tr.Block(2, false)
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("operation did not recover after the heal")
	}
	if f.tr.Dropped() == 0 {
		t.Fatal("blocked links dropped no messages")
	}
	close(step)
}

// conns snapshots the connections the node servers hold, once every peer
// loop has one (a quorum completes operations before the last has dialled).
func (f *tcpFixture) conns(t *testing.T) map[stdnet.Conn]bool {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		held := map[stdnet.Conn]bool{}
		for _, srv := range f.srvs {
			srv.mu.Lock()
			for c := range srv.conns {
				held[c] = true
			}
			srv.mu.Unlock()
		}
		if len(held) >= len(f.srvs) {
			return held
		}
		if time.Now().After(deadline) {
			t.Fatalf("the node servers hold %d connections, want one per peer", len(held))
		}
	}
}

// Losing every live connection mid-run costs a redial and a retransmission,
// nothing else: a write made before the cut is read after it, and struct
// values — whose gob descriptors crossed on the old connections — cross the
// new ones, which they only do if both ends start from fresh codec state.
func TestTCPReconnectAfterCut(t *testing.T) {
	f := newTCPFixture(t, Config{})
	reg := f.sub.NewRegisterAny("r", nil)
	before, after := wireStruct{A: 1, S: "before"}, wireStruct{A: 2, S: "after", L: []int{4}}
	within(t, 10*time.Second, "the write before the cut", func() { reg.Write(before) })
	old := f.conns(t)
	for c := range old {
		c.Close()
	}
	var got any
	within(t, 10*time.Second, "the read after the cut", func() { got = reg.Read() })
	if !reflect.DeepEqual(got, before) {
		t.Fatalf("read %+v after the cut, want %+v", got, before)
	}
	within(t, 10*time.Second, "a write and a read after the cut", func() {
		reg.Write(after)
		got = reg.Read()
	})
	if !reflect.DeepEqual(got, after) {
		t.Fatalf("read %+v, want %+v", got, after)
	}
}

// A node that goes away and comes back on the same address is found
// again: operations complete on the majority while it is gone, and the
// peer loop's redial reaches the new listener.
func TestTCPNodeRestart(t *testing.T) {
	f := newTCPFixture(t, Config{})
	reg := prim.NewRegister[int64](f.sub, "r", 0)
	within(t, 10*time.Second, "the first write", func() { reg.Write(1) })
	addr, node := f.srvs[2].Addr(), f.srvs[2].Node()
	f.srvs[2].Close()
	var got int64
	within(t, 10*time.Second, "a write and a read on the majority", func() {
		reg.Write(2)
		got = reg.Read()
	})
	if got != 2 {
		t.Fatalf("read %d with one node down, want 2", got)
	}
	// Node state outlives the listener: nodes do not crash in this model,
	// it is the transport that restarts.
	srv, err := ListenNode(addr, node)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	handled := node.Handled()
	for deadline := time.Now().Add(10 * time.Second); node.Handled() == handled; {
		if time.Now().After(deadline) {
			t.Fatal("the restarted node was never sent a request")
		}
		within(t, 10*time.Second, "a read while the node returns", func() { got = reg.Read() })
	}
	if got != 2 {
		t.Fatalf("read %d after the restart, want 2", got)
	}
}

// exchange sends one good request on conn and reads its reply.
func exchange(t *testing.T, conn stdnet.Conn, op uint64) Reply {
	t.Helper()
	req := Request{Op: op, Phase: phaseRead, Reg: "r", Src: -1}
	if _, err := conn.Write(encodeAll(t, []frame{req.frame()})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := newDecoder(conn).next()
	if err != nil {
		t.Fatalf("no reply to a good request: %v", err)
	}
	return f.reply()
}

// Hostile bytes cost a node server the connection they arrived on and
// nothing else: it hangs up, and keeps serving the connections it had and
// the ones that come after.
func TestNodeServerSurvivesHostileBytes(t *testing.T) {
	srv, err := ListenNode("127.0.0.1:0", NewNode(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() stdnet.Conn {
		conn, err := stdnet.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	bystander := dial()
	exchange(t, bystander, 1)
	for name, stream := range hostileStreams(t) {
		conn := dial()
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		if name == "truncated" {
			// Half a frame is only wrong once nothing more can follow.
			conn.(*stdnet.TCPConn).CloseWrite()
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, conn); err != nil {
			t.Fatalf("%s: the server did not hang up: %v", name, err)
		}
		if rep := exchange(t, bystander, 2); rep.Op != 2 || rep.Node != 0 {
			t.Fatalf("%s: the bystander connection got %+v", name, rep)
		}
	}
	if rep := exchange(t, dial(), 3); rep.Op != 3 {
		t.Fatalf("a connection after the hostile ones got %+v", rep)
	}
}

// The same four against the client's reply reader, through a fake node
// that answers its first connection with them and serves the later ones
// honestly: the peer loop hangs up and redials, and the operation — which
// needs that node, the other peer being blocked — completes by
// retransmission.
func TestTCPSurvivesHostileReplies(t *testing.T) {
	for name, stream := range hostileStreams(t) {
		t.Run(name, func(t *testing.T) {
			f := &tcpFixture{}
			peers := []string{f.listen(t, 0), f.listen(t, 1), ""}
			ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			honest := &NodeServer{node: NewNode(2), ln: ln, conns: make(map[stdnet.Conn]struct{})}
			t.Cleanup(honest.Close)
			peers[2] = ln.Addr().String()
			var accepted atomic.Int32
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					if accepted.Add(1) > 1 {
						honest.mu.Lock()
						honest.conns[conn] = struct{}{}
						honest.mu.Unlock()
						go honest.serveConn(conn)
						continue
					}
					go func() {
						defer conn.Close()
						if _, err := newDecoder(conn).next(); err != nil {
							return
						}
						conn.Write(stream)
						if name != "truncated" { // there the fake hangs up, here the client must
							io.Copy(io.Discard, conn)
						}
					}()
				}
			}()
			f.connect(t, peers, Config{})
			f.tr.Block(1, true)
			reg := prim.NewRegister[int64](f.sub, "r", 0)
			var got int64
			within(t, 10*time.Second, "a write and a read through the fake node", func() {
				reg.Write(5)
				got = reg.Read()
			})
			if got != 5 {
				t.Fatalf("read %d, want 5", got)
			}
			if n := accepted.Load(); n < 2 {
				t.Fatalf("the fake node saw %d connections: the peer loop did not redial", n)
			}
		})
	}
}

// lateStruct is a register value nobody registers until the test below
// does, and lateRegistered remembers that it has: gob forgets nothing.
type lateStruct struct{ N int }

var lateRegistered bool

// A value that cannot be encoded is not a dead link. The transport keeps
// its connections, drops the request, and says why within a second —
// where it used to tear the connection down, redial and retransmit for
// good without a word. Registering the type then lets the very same write
// complete: the registry is consulted whenever a value takes the gob path,
// not once at start-up.
func TestTCPEncodeErrorIsReportedNotRedialled(t *testing.T) {
	if lateRegistered {
		t.Skip("lateStruct stays registered once this test has run in a process")
	}
	f := newTCPFixture(t, Config{})
	warm := prim.NewRegister[int64](f.sub, "warm", 0)
	within(t, 10*time.Second, "a first write", func() { warm.Write(1) })
	held := f.conns(t)

	reg := f.sub.NewRegisterAny("late", nil)
	wrote := make(chan struct{})
	go func() {
		defer unwound()
		reg.Write(lateStruct{N: 7})
		close(wrote)
	}()
	var n int64
	var encErr error
	for deadline := time.Now().Add(time.Second); n == 0; n, encErr = f.tr.EncodeErrors() {
		if time.Now().After(deadline) {
			t.Fatal("a second into a write that cannot be encoded the transport reports nothing")
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(encErr.Error(), "lateStruct") || !strings.Contains(encErr.Error(), `"late"`) {
		t.Fatalf("the error names neither the type nor the register: %v", encErr)
	}
	if f.tr.Dropped() < n {
		t.Fatalf("%d encode failures but %d requests dropped", n, f.tr.Dropped())
	}
	within(t, 10*time.Second, "a write beside the failing one", func() { warm.Write(2) })
	for c := range f.conns(t) {
		if !held[c] {
			t.Fatal("an encode failure cost a connection")
		}
	}
	select {
	case <-wrote:
		t.Fatal("a value that cannot be encoded was written")
	default:
	}

	lateRegistered = true
	prim.RegisterWireType(lateStruct{})
	select {
	case <-wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("the write did not complete once its type was registered")
	}
	var got any
	within(t, 10*time.Second, "the read", func() { got = reg.Read() })
	if got != (lateStruct{N: 7}) {
		t.Fatalf("read %+v, want %+v", got, lateStruct{N: 7})
	}
}

// On the TCP substrate a task waiting on a local variable parks, and at
// once: it shows in the runtime's telemetry and its process stops taking
// steps. The same task on the fabric is handed a Proc that cannot park and
// keeps stepping, so simulated schedules are what they were.
func TestTCPTasksPark(t *testing.T) {
	var never prim.Var[bool]
	f := newTCPFixture(t, Config{})
	f.sub.Spawn(0, "waiter", func(p prim.Proc) { never.Await(p, prim.IsTrue) })
	for deadline := time.Now().Add(50 * time.Millisecond); f.rt.ProcStats(0).Parked != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("50 ms into its wait the task is not parked: %+v", f.rt.ProcStats(0))
		}
		time.Sleep(100 * time.Microsecond)
	}
	steps := f.rt.ProcStats(0).Steps
	time.Sleep(20 * time.Millisecond)
	if now := f.rt.ProcStats(0).Steps; now != steps {
		t.Fatalf("a parked task's process went from %d to %d steps", steps, now)
	}

	k := sim.New(3)
	sub, _, err := NewFabric(k, FabricConfig{Seed: 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	parker := false
	sub.Spawn(0, "waiter", func(p prim.Proc) {
		_, parker = p.(prim.Parker)
		never.Await(p, prim.IsTrue)
	})
	res, err := k.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if parker || res.Idle || k.Metrics().Steps[0] != 1000 {
		t.Fatalf("on the fabric: parker %v, idle %v, %d steps of 1000", parker, res.Idle, k.Metrics().Steps[0])
	}
}

// BenchmarkNetRegister measures quorum operation latency over TCP
// loopback: what one ABD read (two quorum round trips) and one write
// cost through real sockets. TCP register operations are driven directly
// from the bench goroutine — the transport parks on channels, not on a
// scheduler, so no task context is needed.
func BenchmarkNetRegister(b *testing.B) {
	r := rt.New(3, nil)
	peers := make([]string, 3)
	var servers []*NodeServer
	for i := 0; i < 3; i++ {
		srv, err := ListenNode("127.0.0.1:0", NewNode(i))
		if err != nil {
			b.Fatal(err)
		}
		servers = append(servers, srv)
		peers[i] = srv.Addr()
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	sub, _, err := NewTCP(r, r.Stopping(), TCPConfig{
		Peers:           peers,
		RetransmitEvery: 5 * time.Millisecond,
	}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Stop()
	reg := prim.NewRegister[int64](sub, "bench", 0)
	reg.Write(1)
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg.Read()
		}
	})
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg.Write(int64(i))
		}
	})
}
