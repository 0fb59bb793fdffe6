package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// holdUntilClosed is the serve function both services reduce to when a peer
// connects and never speaks: tee's serveConn and dist's registration
// handshake park in a read until the connection ends.
func holdUntilClosed(conn net.Conn) {
	defer conn.Close()
	_, _ = io.Copy(io.Discard, conn)
}

// TestCloseUnblocksHeldOpenClients is the shutdown-race regression test:
// clients that hold their connection open without ever sending a frame park
// the serve function in a read, and more clients keep dialing while Close runs
// so some connections register mid-Close. With the old ordering (conns walked
// before closed was set) a connection accepted in that window was never closed
// and wg.Wait blocked forever; Close must return within the deadline.
func TestCloseUnblocksHeldOpenClients(t *testing.T) {
	t.Parallel()
	l := NewListener("test service", holdUntilClosed)
	l.ErrorLog = log.New(io.Discard, "", 0)
	addr, err := l.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var conns []net.Conn
	hold := func(c net.Conn) {
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
	}
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		hold(c)
	}

	// Churn dialers race registration against Close until dialing fails.
	var churn sync.WaitGroup
	stopChurn := make(chan struct{})
	for g := 0; g < 2; g++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; i < 200; i++ {
				select {
				case <-stopChurn:
					return
				default:
				}
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				hold(c)
			}
		}()
	}

	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Listener.Close hung with held-open clients")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	close(stopChurn)
	churn.Wait()
	mu.Lock()
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()
}

// transientErrListener always fails Accept with a transient error, counting
// the calls — a stand-in for an EMFILE burst.
type transientErrListener struct {
	calls atomic.Int64
}

func (l *transientErrListener) Accept() (net.Conn, error) {
	l.calls.Add(1)
	return nil, fmt.Errorf("accept tcp: too many open files")
}

func (l *transientErrListener) Close() error   { return nil }
func (l *transientErrListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptLoopBacksOffOnTransientErrors pins the accept-loop backoff: a
// sustained burst of transient Accept errors must produce a handful of
// retries (5ms→1s exponential), not a hot spin, and exactly one log line.
func TestAcceptLoopBacksOffOnTransientErrors(t *testing.T) {
	t.Parallel()
	l := NewListener("test service", holdUntilClosed)
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	l.ErrorLog = log.New(writerFunc(func(p []byte) (int, error) {
		logMu.Lock()
		defer logMu.Unlock()
		return logBuf.Write(p)
	}), "", 0)

	ln := &transientErrListener{}
	l.start(ln)
	time.Sleep(300 * time.Millisecond)

	if n := ln.calls.Load(); n > 20 {
		t.Fatalf("accept loop retried %d times in 300ms; hot spin not backed off", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := ln.calls.Load(); n == 0 {
		t.Fatal("fake listener never polled")
	}
	logMu.Lock()
	defer logMu.Unlock()
	if lines := strings.Count(logBuf.String(), "\n"); lines != 1 {
		t.Fatalf("want exactly one log line per error burst, got %d:\n%s", lines, logBuf.String())
	}
	if !strings.HasPrefix(logBuf.String(), "test service: accept: ") {
		t.Fatalf("log line %q does not name the service", logBuf.String())
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestCloseLeavesHandedOnConnections: a serve function that returns without
// closing its connection has handed it to another owner (dist parks registered
// workers this way). Close must neither wait for such a connection nor close
// it.
func TestCloseLeavesHandedOnConnections(t *testing.T) {
	t.Parallel()
	kept := make(chan net.Conn, 1)
	l := NewListener("test service", func(conn net.Conn) { kept <- conn })
	addr, err := l.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-kept
	defer server.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	_ = server.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := io.ReadFull(server, b[:]); err != nil || b[0] != 1 {
		t.Fatalf("handed-on connection unusable after Close: byte %d err %v", b[0], err)
	}
}

// TestRoundTripBoundsASilentPeer: a peer that accepts and never answers, and
// one that answers half a frame, cost the caller the timeout — not forever.
func TestRoundTripBoundsASilentPeer(t *testing.T) {
	t.Parallel()
	for name, answer := range map[string][]byte{
		"never answers":     nil,
		"stalls mid-header": {0, 0, 0},
		"stalls mid-frame":  {0, 0, 0, 8, 1, 2, 'x'},
	} {
		l := NewListener("test service", func(conn net.Conn) {
			_, _ = conn.Write(answer)
			holdUntilClosed(conn)
		})
		addr, err := l.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, _, err := RoundTrip(conn, NewCodec(conn, 1), 200*time.Millisecond, 1, []byte("ping"))
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("%s: err = %v, want a timeout", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: RoundTrip hung past its deadline", name)
		}
		conn.Close()
		l.Close()
	}
}
