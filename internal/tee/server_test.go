package tee

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"flips/internal/wire"
)

// TestOversizedRequestGetsExplicitError hand-crafts a frame header announcing
// a payload past the 16 MiB limit and streams the body behind it: the server
// must reject from the header alone, answer with an explicit frame-limit
// error response, and drain the in-flight body so the client's write
// completes instead of dying on an RST.
func TestOversizedRequestGetsExplicitError(t *testing.T) {
	t.Parallel()
	enclave, _ := newTestEnclave(t)
	server := NewServer(enclave)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Header: length = maxFrame + 64 KiB, correct version, request type. The
	// server rejects from the header alone (never allocating the announced
	// size), so only a slice of the body is streamed behind it — enough to be
	// in flight when the error response comes back, small enough that the
	// drain window always consumes it.
	body := maxFrame + 64*1024
	head := []byte{
		byte(body >> 24), byte(body >> 16), byte(body >> 8), byte(body),
		wireVersion, frameReq,
	}
	writeErr := make(chan error, 1)
	go func() {
		if _, err := conn.Write(head); err != nil {
			writeErr <- err
			return
		}
		_, err := conn.Write(bytes.Repeat([]byte{'a'}, 512*1024))
		writeErr <- err
	}()

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	codec := wire.NewCodec(conn, wireVersion)
	typ, payload, err := codec.Recv()
	if err != nil {
		t.Fatalf("no response to oversized request: %v", err)
	}
	if typ != frameResp {
		t.Fatalf("response frame type = %d, want %d", typ, frameResp)
	}
	var resp response
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "frame exceeds") {
		t.Fatalf("response error = %q, want frame-limit error", resp.Error)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("oversized write failed before the error response: %v", err)
	}
}

// TestBadVersionFrameGetsErrorResponse pins the version gate: a well-formed
// frame carrying a foreign protocol version draws an explicit error response
// on a still-framed stream (the payload is consumed, not abandoned).
func TestBadVersionFrameGetsErrorResponse(t *testing.T) {
	t.Parallel()
	enclave, _ := newTestEnclave(t)
	server := NewServer(enclave)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	foreign := wire.NewCodec(conn, wireVersion+1)
	if err := foreign.Send(frameReq, []byte(`{"op":"quote"}`)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	codec := wire.NewCodec(conn, wireVersion)
	typ, payload, err := codec.Recv()
	if err != nil || typ != frameResp {
		t.Fatalf("recv = (%d, %v), want an error response frame", typ, err)
	}
	var resp response
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "version") {
		t.Fatalf("response error = %q, want version mismatch", resp.Error)
	}
}

// TestRemoteOversizedSubmitFailsFast pins the client half: a ciphertext that
// cannot fit one wire frame is rejected before any bytes are sent, the error
// is identifiable as ErrFrameTooLarge, and the connection stays usable.
func TestRemoteOversizedSubmitFailsFast(t *testing.T) {
	t.Parallel()
	enclave, _ := newTestEnclave(t)
	server := NewServer(enclave)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	remote, err := DialEnclave(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// maxFrame raw bytes base64-expand past the frame limit.
	err = remote.Submit("some-session", make([]byte, maxFrame))
	if err == nil {
		t.Fatal("oversized submit accepted")
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("submit error = %v, want ErrFrameTooLarge", err)
	}

	// The frame was never sent, so the stream is still framed correctly.
	resp, err := remote.roundTrip(request{Op: "quote", Nonce: []byte("n")})
	if err != nil || !resp.OK {
		t.Fatalf("connection unusable after rejected oversized submit: %v", err)
	}
}
