package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The http-slow1 server must be a child process: sharing one Go runtime
// with the spinning replicas starves the load generator's own netpoll
// (sizing runs saw 97 ops/s in-process against ~550 from outside).

// children tracks live child processes so a signal can take them down.
var children struct {
	mu    sync.Mutex
	procs map[*os.Process]bool
}

func trackChild(p *os.Process, on bool) {
	children.mu.Lock()
	defer children.mu.Unlock()
	if children.procs == nil {
		children.procs = map[*os.Process]bool{}
	}
	if on {
		children.procs[p] = true
	} else {
		delete(children.procs, p)
	}
}

// killChildren kills every live child; the signal handler calls it before
// exiting, since deferred stops do not run on os.Exit.
func killChildren() {
	children.mu.Lock()
	defer children.mu.Unlock()
	for p := range children.procs {
		p.Kill()
	}
}

// buildServe builds cmd/tbwf-serve into the harness's build directory and
// returns the binary's path. The go tool's cache makes every build after
// the first a no-op; the build is never inside a timed section.
func buildServe() (string, error) {
	if err := os.MkdirAll(".build", 0o755); err != nil {
		return "", err
	}
	bin := ".build/tbwf-serve"
	cmd := exec.Command("go", "build", "-o", bin, "tbwf/cmd/tbwf-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building tbwf-serve (run from the bench directory of a full checkout): %v\n%s", err, out)
	}
	return bin, nil
}

// serveChild is a running tbwf-serve.
type serveChild struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has been reaped
	err    error         // its exit status, valid after exited
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServe execs the server on a free loopback port and waits until
// /v1/stats answers.
func startServe(bin string, args ...string) (*serveChild, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &serveChild{addr: addr, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Stderr = &c.stderr
	// If the harness is killed outright, the kernel takes the child too.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	trackChild(c.cmd.Process, true)
	go func() {
		c.err = c.cmd.Wait()
		trackChild(c.cmd.Process, false)
		close(c.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if err := c.alive(); err != nil {
			return nil, err
		}
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			h := &httpConn{c: conn, br: bufio.NewReader(conn)}
			status, _, err := h.do("GET", "/v1/stats", nil, time.Second)
			conn.Close()
			if err == nil && status == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("tbwf-serve did not answer /v1/stats on %s within 20 s", addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// alive reports an error if the child has exited — a dead server is a
// clean failure of the run, not a hang.
func (c *serveChild) alive() error {
	select {
	case <-c.exited:
		tail := strings.TrimSpace(c.stderr.String())
		if len(tail) > 600 {
			tail = tail[len(tail)-600:]
		}
		return fmt.Errorf("tbwf-serve exited (%v): %s", c.err, tail)
	default:
		return nil
	}
}

// stop kills the child and waits until it has been reaped.
func (c *serveChild) stop() {
	c.cmd.Process.Kill()
	<-c.exited
}

// httpConn is one persistent HTTP/1.1 connection driven synchronously by
// its owner: one request outstanding, no transport goroutines between the
// caller and the socket.
type httpConn struct {
	addr string
	// mu orders the owner's replacement of c in redial against another
	// goroutine's interrupt; the owner reads c without it.
	mu   sync.Mutex
	c    net.Conn
	br   *bufio.Reader
	dead atomic.Bool // set by interrupt: every later request fails at once
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpConn{addr: addr, c: c, br: bufio.NewReader(c)}, nil
}

// redial replaces a connection that failed mid-request.
func (h *httpConn) redial() error {
	h.c.Close()
	n, err := dialHTTP(h.addr)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.c, h.br = n.c, n.br
	h.mu.Unlock()
	return nil
}

// interrupt fails the request the owner has outstanding, and any it makes
// afterwards, from another goroutine.
func (h *httpConn) interrupt() {
	h.dead.Store(true)
	h.mu.Lock()
	h.c.SetDeadline(time.Unix(1, 0))
	h.mu.Unlock()
}

// do sends one request and reads the whole response.
func (h *httpConn) do(method, path string, body []byte, timeout time.Duration) (int, []byte, error) {
	h.c.SetDeadline(time.Now().Add(timeout))
	// Checked after the deadline is set: an interrupt that came first is
	// seen here, one that comes later overrides the deadline.
	if h.dead.Load() {
		return 0, nil, os.ErrDeadlineExceeded
	}
	var req bytes.Buffer
	fmt.Fprintf(&req, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if body != nil {
		fmt.Fprintf(&req, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	req.WriteString("\r\n")
	req.Write(body)
	if _, err := h.c.Write(req.Bytes()); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}
