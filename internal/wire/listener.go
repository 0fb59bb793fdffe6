package wire

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"
)

// Transient Accept errors (EMFILE, ECONNABORTED, ...) back off exponentially
// between these bounds instead of hot-spinning.
const (
	minAcceptBackoff = 5 * time.Millisecond
	maxAcceptBackoff = time.Second
)

// Listener is how a TCP service of this repository accepts its peers and shuts
// them down: it runs the accept loop, hands every accepted connection to the
// service's serve function on its own goroutine, and on Close stops accepting,
// closes every connection whose serve call has not returned, and waits for
// those calls. A serve function owns its connection: it closes it before
// returning, or hands it to an owner that will (dist parks a registered worker
// this way — the Listener then no longer knows the connection).
type Listener struct {
	// ErrorLog receives one line per burst of transient accept errors and
	// whatever the service reports through Logf. Nil logs via the standard
	// logger; set before Listen.
	ErrorLog *log.Logger

	name  string
	serve func(net.Conn)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{} // accepted, serve not yet returned
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewListener prepares a listener for the service called name (the prefix of
// its errors and log lines); call Listen to bind it.
func NewListener(name string, serve func(net.Conn)) *Listener {
	return &Listener{
		name:  name,
		serve: serve,
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
}

// Listen binds addr (e.g. "127.0.0.1:0"), starts accepting and returns the
// bound address. Serving continues until Close.
func (l *Listener) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: %w", l.name, err)
	}
	l.start(ln)
	return ln.Addr().String(), nil
}

func (l *Listener) start(ln net.Listener) {
	l.mu.Lock()
	l.ln = ln
	l.mu.Unlock()
	l.wg.Add(1)
	go l.acceptLoop(ln)
}

// Logf writes one line to ErrorLog, or to the standard logger when it is nil.
func (l *Listener) Logf(format string, args ...any) {
	if l.ErrorLog != nil {
		l.ErrorLog.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func (l *Listener) acceptLoop(ln net.Listener) {
	defer l.wg.Done()
	backoff := minAcceptBackoff
	// One log line per burst: the first error is reported, later ones are
	// silent until an accept succeeds again.
	inBurst := false
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-l.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if !inBurst {
				l.Logf("%s: accept: %v (backing off)", l.name, err)
				inBurst = true
			}
			timer := time.NewTimer(backoff)
			select {
			case <-l.done:
				timer.Stop()
				return
			case <-timer.C:
			}
			backoff = min(2*backoff, maxAcceptBackoff)
			continue
		}
		backoff = minAcceptBackoff
		inBurst = false
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			l.serve(conn)
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every connection still being served and waits
// for the serve calls to return. Close is idempotent.
//
// Ordering matters: closed is set and the net listener shut down *before* the
// connection set is walked. The accept loop registers a connection under the
// same mutex after re-checking closed, so one that wins registration against
// Close is already in the set — walking the set first would let a connection
// accepted mid-Close slip past it and keep wg.Wait blocked on its serve call
// forever.
func (l *Listener) Close() error {
	l.mu.Lock()
	first := !l.closed
	l.closed = true
	ln := l.ln
	l.mu.Unlock()
	var err error
	if first {
		close(l.done)
		if ln != nil {
			err = ln.Close()
		}
	}
	l.mu.Lock()
	for conn := range l.conns {
		conn.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

// RoundTrip sends one request frame on conn and reads the reply, both under
// one deadline timeout from now: a peer that stalls at any point of the
// exchange — before reading, mid-frame, before answering — costs the caller
// at most timeout. The reply payload aliases the codec's receive buffer. The
// deadline stays set on conn; every later exchange sets its own.
func RoundTrip(conn net.Conn, c *Codec, timeout time.Duration, typ byte, payload []byte) (byte, []byte, error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, nil, err
	}
	if err := c.Send(typ, payload); err != nil {
		return 0, nil, err
	}
	return c.Recv()
}
