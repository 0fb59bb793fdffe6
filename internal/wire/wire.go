// Package wire implements the length-prefixed binary framing shared by this
// repository's TCP protocols: the TEE clustering service (internal/tee) and
// the distributed aggregation protocol (internal/dist). One frame is
//
//	[length u32 BE][version u8][type u8][payload ...]
//
// where length counts only the payload bytes. The codec enforces a hard
// MaxFrame bound in both directions — an oversized send fails before any
// byte reaches the socket (a half-written frame would desynchronize the
// stream forever), and an oversized receive fails from the header alone,
// before the payload is read. Reads use io.ReadFull throughout, so a frame
// split across arbitrarily many TCP segments reassembles correctly, and go
// through a bufio.Reader, so the header and payload of a small frame arrive
// in one read(2) (a payload larger than the buffer is still read straight
// into the receive buffer, not staged twice); writes go through one
// vectored write whose error surfaces short writes that the old
// newline-delimited tee framing could only detect as JSON decode noise on
// the peer.
//
// Beside the codec the package owns the rest of what it takes to be a TCP peer
// here (listener.go): Listener, the one accept loop and shutdown discipline
// both services run on, and RoundTrip, the deadline-bounded request/response
// exchange both clients call.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// MaxFrame bounds one frame's payload in either direction. Frames beyond it
// are rejected with ErrFrameTooLarge instead of silently corrupting the
// stream.
const MaxFrame = 16 * 1024 * 1024

// headerLen is the fixed frame header: u32 length + version byte + type byte.
const headerLen = 6

// readBuffer sizes the codec's read-ahead: large enough that a dist dispatch
// or a 16-party partial fold of a ~1k-float model is one read(2), small
// enough to be noise per connection.
const readBuffer = 64 * 1024

// ErrFrameTooLarge reports a frame exceeding the 16 MiB payload limit, on
// either side: senders fail before writing anything, receivers fail from the
// header without reading the payload.
var ErrFrameTooLarge = fmt.Errorf("frame exceeds %d-byte limit", MaxFrame)

// BadVersionError reports a frame carrying an unexpected protocol version.
// The offending frame's payload has been consumed, so the stream remains
// framed and the caller may answer with an error frame before closing.
type BadVersionError struct {
	Got, Want byte
}

func (e *BadVersionError) Error() string {
	return fmt.Sprintf("wire: protocol version %d, want %d", e.Got, e.Want)
}

// Codec frames messages over one bidirectional stream. It is not
// goroutine-safe: callers serialize Send and Recv externally (both protocols
// in this repository are strict request/response under a caller-held mutex,
// or single-reader loops).
type Codec struct {
	rw      io.ReadWriter
	br      *bufio.Reader
	version byte
	// buf is the reusable receive buffer; Recv's returned payload aliases it
	// and is valid only until the next Recv.
	buf []byte
	// Separate header scratch per direction, so a pipelined peer (send in
	// flight while a read blocks) cannot tear the header bytes.
	sendHead, recvHead [headerLen]byte
	// sendVec backs sendBufs, the header+payload pair handed to writev; both
	// live in the codec so Send allocates nothing.
	sendVec  [2][]byte
	sendBufs net.Buffers
	// bytesIn/bytesOut count all frame bytes (headers included) through the
	// codec; atomic so metrics scrapes can read them while I/O is in flight.
	bytesIn, bytesOut atomic.Int64
}

// NewCodec wraps rw (typically a net.Conn) with the frame codec for the
// given protocol version.
func NewCodec(rw io.ReadWriter, version byte) *Codec {
	return &Codec{rw: rw, br: bufio.NewReaderSize(rw, readBuffer), version: version}
}

// Send writes one frame. Payloads beyond MaxFrame fail with ErrFrameTooLarge
// before anything is written. The payload is copied into a single buffered
// write so header and body cannot be torn apart by a mid-frame failure
// surfacing only on the peer.
func (c *Codec) Send(typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire send: %w", ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(c.sendHead[:4], uint32(len(payload)))
	c.sendHead[4] = c.version
	c.sendHead[5] = typ
	// One writev-shaped write: net.Buffers lets the kernel coalesce header
	// and payload without copying the payload into a staging buffer.
	if conn, ok := c.rw.(net.Conn); ok {
		c.sendVec[0], c.sendVec[1] = c.sendHead[:], payload
		c.sendBufs = c.sendVec[:] // WriteTo consumes the slice header
		n, err := c.sendBufs.WriteTo(conn)
		c.sendVec[1] = nil // do not retain the caller's payload
		c.bytesOut.Add(n)
		if err != nil {
			return fmt.Errorf("wire send: %w", err)
		}
		return nil
	}
	if n, err := c.rw.Write(c.sendHead[:]); err != nil {
		c.bytesOut.Add(int64(n))
		return fmt.Errorf("wire send: %w", err)
	}
	c.bytesOut.Add(headerLen)
	n, err := c.rw.Write(payload)
	c.bytesOut.Add(int64(n))
	if err != nil {
		return fmt.Errorf("wire send: %w", err)
	}
	return nil
}

// Recv reads one frame and returns its type and payload. The payload slice
// aliases the codec's internal buffer and is valid only until the next Recv;
// callers that retain it must copy.
//
// Error contract: ErrFrameTooLarge means the peer announced a payload beyond
// MaxFrame — the payload was not read, the stream can no longer be reframed,
// and the caller should answer (if it can) and close. A *BadVersionError
// means the frame was well-formed but foreign — its payload has been
// consumed, so the stream remains usable for an error reply. io.EOF is a
// clean close between frames; mid-frame truncation surfaces as
// io.ErrUnexpectedEOF.
func (c *Codec) Recv() (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(c.br, c.recvHead[:]); err != nil {
		return 0, nil, err
	}
	c.bytesIn.Add(headerLen)
	length := binary.BigEndian.Uint32(c.recvHead[:4])
	if length > MaxFrame {
		return 0, nil, fmt.Errorf("wire recv: %w", ErrFrameTooLarge)
	}
	version, typ := c.recvHead[4], c.recvHead[5]
	if cap(c.buf) < int(length) {
		c.buf = make([]byte, length)
	}
	c.buf = c.buf[:length]
	if _, err := io.ReadFull(c.br, c.buf); err != nil {
		if errors.Is(err, io.EOF) {
			// The header promised a payload: a close here is a truncation,
			// not a clean end-of-stream.
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	c.bytesIn.Add(int64(length))
	if version != c.version {
		return 0, nil, &BadVersionError{Got: version, Want: c.version}
	}
	return typ, c.buf, nil
}

// BytesIn reports total bytes received through the codec (headers included).
func (c *Codec) BytesIn() int64 { return c.bytesIn.Load() }

// BytesOut reports total bytes sent through the codec (headers included).
func (c *Codec) BytesOut() int64 { return c.bytesOut.Load() }

// Drain briefly consumes whatever the peer is still sending, so a subsequent
// Close lands as a clean FIN instead of an RST that could destroy a final
// error frame in flight. Call after sending the last frame, before Close.
func Drain(conn net.Conn, timeout time.Duration) {
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	_, _ = io.Copy(io.Discard, conn)
}
