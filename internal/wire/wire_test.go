package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipeBuffer is an in-memory ReadWriter where writes land in one buffer and
// reads come from another, so two codecs can talk through crossed buffers.
type pipeBuffer struct {
	in  *bytes.Buffer
	out *bytes.Buffer
}

func (p *pipeBuffer) Read(b []byte) (int, error)  { return p.in.Read(b) }
func (p *pipeBuffer) Write(b []byte) (int, error) { return p.out.Write(b) }

func TestRoundTrip(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	sender := NewCodec(&pipeBuffer{in: new(bytes.Buffer), out: &buf}, 3)
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 100_000)}
	for i, p := range payloads {
		if err := sender.Send(byte(i+1), p); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	receiver := NewCodec(&pipeBuffer{in: &buf, out: new(bytes.Buffer)}, 3)
	for i, p := range payloads {
		typ, got, err := receiver.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d type = %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d payload mismatch: %d bytes vs %d", i, len(got), len(p))
		}
	}
	if _, _, err := receiver.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("recv past end = %v, want EOF", err)
	}
	if sender.BytesOut() != receiver.BytesIn() {
		t.Fatalf("byte counters diverge: out %d, in %d", sender.BytesOut(), receiver.BytesIn())
	}
}

func TestSendOversizedFailsBeforeWriting(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	c := NewCodec(&pipeBuffer{in: new(bytes.Buffer), out: &buf}, 1)
	err := c.Send(1, make([]byte, MaxFrame+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized send wrote %d bytes; a torn frame poisons the stream", buf.Len())
	}
	if c.BytesOut() != 0 {
		t.Fatalf("byte counter moved (%d) on a rejected send", c.BytesOut())
	}
}

func TestRecvOversizedFailsFromHeader(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	head := make([]byte, headerLen)
	binary.BigEndian.PutUint32(head, MaxFrame+1)
	head[4], head[5] = 1, 1
	buf.Write(head)
	c := NewCodec(&pipeBuffer{in: &buf, out: new(bytes.Buffer)}, 1)
	if _, _, err := c.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestRecvBadVersionConsumesFrame(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	bad := NewCodec(&pipeBuffer{in: new(bytes.Buffer), out: &buf}, 9)
	if err := bad.Send(7, []byte("foreign")); err != nil {
		t.Fatal(err)
	}
	good := NewCodec(&pipeBuffer{in: new(bytes.Buffer), out: &buf}, 1)
	if err := good.Send(2, []byte("native")); err != nil {
		t.Fatal(err)
	}
	c := NewCodec(&pipeBuffer{in: &buf, out: new(bytes.Buffer)}, 1)
	_, _, err := c.Recv()
	var bv *BadVersionError
	if !errors.As(err, &bv) || bv.Got != 9 || bv.Want != 1 {
		t.Fatalf("err = %v, want BadVersionError{9,1}", err)
	}
	// The foreign frame was consumed whole: the stream stays framed and the
	// next Recv lands on the native frame.
	typ, payload, err := c.Recv()
	if err != nil || typ != 2 || string(payload) != "native" {
		t.Fatalf("recv after bad version = (%d, %q, %v), want (2, native, nil)", typ, payload, err)
	}
}

func TestRecvTruncatedPayload(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	c := NewCodec(&pipeBuffer{in: new(bytes.Buffer), out: &buf}, 1)
	if err := c.Send(1, []byte("full payload")); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-5]
	r := NewCodec(bytes.NewBuffer(truncated), 1)
	if _, _, err := r.Recv(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated recv = %v, want ErrUnexpectedEOF", err)
	}
}

// TestFrameAcrossSegments pins the partial-read fix: a frame delivered one
// byte at a time must reassemble exactly (the old tee scanner handled this;
// a naive single-Read port would not).
func TestFrameAcrossSegments(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	c := NewCodec(&pipeBuffer{in: new(bytes.Buffer), out: &buf}, 1)
	payload := bytes.Repeat([]byte("segment"), 1000)
	if err := c.Send(5, payload); err != nil {
		t.Fatal(err)
	}
	r := NewCodec(&oneByteReader{data: buf.Bytes()}, 1)
	typ, got, err := r.Recv()
	if err != nil || typ != 5 || !bytes.Equal(got, payload) {
		t.Fatalf("recv over 1-byte reads = (%d, %d bytes, %v)", typ, len(got), err)
	}
}

// oneByteReader yields one byte per Read, simulating maximal TCP segmentation.
type oneByteReader struct {
	data []byte
	off  int
}

func (o *oneByteReader) Write(b []byte) (int, error) { return len(b), nil }

func (o *oneByteReader) Read(b []byte) (int, error) {
	if o.off >= len(o.data) {
		return 0, io.EOF
	}
	b[0] = o.data[o.off]
	o.off++
	return 1, nil
}

func TestDrainUnblocksClose(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// The peer keeps sending; Drain must consume briefly and return.
		Drain(conn, 50*time.Millisecond)
		conn.Close()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		junk := make([]byte, 64*1024)
		for i := 0; i < 100; i++ {
			if _, err := conn.Write(junk); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return")
	}
}

// FuzzWireFrame feeds arbitrary bytes to the decoder (never panics, never
// over-reads) and checks the encode→decode round-trip property on the
// payload it can extract.
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 3, 1, 2, 'a', 'b', 'c'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 1}) // oversized length
	f.Add([]byte{0, 0, 0, 1, 99, 1, 'x'})       // bad version
	f.Add([]byte{0, 0, 0, 5, 1, 1, 'a'})        // truncated payload
	f.Add(bytes.Repeat([]byte{0x41}, 64))       // garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCodec(&pipeBuffer{in: bytes.NewBuffer(data), out: new(bytes.Buffer)}, 1)
		for {
			typ, payload, err := c.Recv()
			if err != nil {
				// Every malformed input must map to a typed error, not a
				// panic; oversized must never allocate the announced size.
				break
			}
			// Round-trip property: re-encoding a decoded frame and decoding
			// it again yields the identical (type, payload).
			var buf bytes.Buffer
			out := NewCodec(&pipeBuffer{in: new(bytes.Buffer), out: &buf}, 1)
			if err := out.Send(typ, payload); err != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", err)
			}
			saved := append([]byte(nil), payload...)
			back := NewCodec(&buf, 1)
			typ2, payload2, err := back.Recv()
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if typ2 != typ || !bytes.Equal(payload2, saved) {
				t.Fatalf("round trip changed frame: (%d, %d bytes) vs (%d, %d bytes)", typ, len(saved), typ2, len(payload2))
			}
		}
	})
}

// BenchmarkWireRoundTrip is one small request frame and its echo over
// loopback TCP, both codecs in this process: steady state allocates nothing
// on either side — the receive buffers are reused and Send builds its writev
// vector in the codec.
func BenchmarkWireRoundTrip(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		peer := NewCodec(conn, 1)
		for {
			typ, payload, err := peer.Recv()
			if err != nil || peer.Send(typ, payload) != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	c := NewCodec(conn, 1)
	payload := make([]byte, 8*1024)
	trip := func() {
		if err := c.Send(1, payload); err != nil {
			b.Fatal(err)
		}
		if _, got, err := c.Recv(); err != nil || len(got) != len(payload) {
			b.Fatalf("echo: %d bytes, err %v", len(got), err)
		}
	}
	trip() // size both receive buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
}
