package tee

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"flips/internal/tensor"
	"flips/internal/wire"
)

// The hostile-peer suite: every scripted peer below must be rejected or
// recovered from — never a panic, never a hang. Each wait sits under the same
// 30 s watchdog as dist's suite; the tests that shorten a deadline variable
// are serial.
const watchdog = 30 * time.Second

func shorten(t *testing.T, v *time.Duration, d time.Duration) {
	t.Helper()
	old := *v
	*v = d
	t.Cleanup(func() { *v = old })
}

func startServer(t *testing.T, enclave *Enclave) string {
	t.Helper()
	server := NewServer(enclave)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return addr
}

// within runs f under the watchdog.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(watchdog):
		t.Fatalf("%s: hung past the %v watchdog", what, watchdog)
	}
}

// TestStalledClientsAreDropped: a client that connects and never speaks, one
// that sends half a header, and one that announces a payload and stalls inside
// it each lose their connection once idleTimeout passes, while a well-behaved
// party is served throughout.
func TestStalledClientsAreDropped(t *testing.T) {
	shorten(t, &idleTimeout, 300*time.Millisecond)
	enclave, attest := newTestEnclave(t)
	addr := startServer(t, enclave)

	stalled := map[string]net.Conn{}
	for name, sent := range map[string][]byte{
		"never speaks":       nil,
		"stalls mid-header":  {0, 0, 0},
		"stalls mid-payload": {0, 0, 0, 100, wireVersion, frameReq, '{', '"', 'o', 'p'},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(sent); err != nil {
			t.Fatal(err)
		}
		stalled[name] = conn
	}

	within(t, "well-behaved party beside the stalled ones", func() {
		remote, err := DialEnclave(addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer remote.Close()
		if err := SubmitAll(remote, attest, []tensor.Vec{{3, 1}, {1, 3}}); err != nil {
			t.Error(err)
		}
	})
	for name, conn := range stalled {
		within(t, name, func() {
			// No reply is owed to a frame that never completed: the server
			// just hangs up, which the client reads as end-of-stream.
			if n, err := io.Copy(io.Discard, conn); err != nil || n != 0 {
				t.Errorf("%s: read %d bytes, err %v; want a clean close", name, n, err)
			}
		})
	}
	if got := enclave.NumSubmissions(); got != 2 {
		t.Fatalf("%d submissions recorded, want 2", got)
	}
}

// TestClientReturnsFromASilentServer: a server that accepts and never answers
// costs every RemoteEnclave call requestTimeout, not forever — Quote fails
// closed (a zero quote no attestation server verifies), the rest report the
// deadline.
func TestClientReturnsFromASilentServer(t *testing.T) {
	shorten(t, &requestTimeout, 300*time.Millisecond)
	// Holds every connection open, reads what arrives, never writes.
	silent := wire.NewListener("silent server", func(conn net.Conn) {
		defer conn.Close()
		_, _ = io.Copy(io.Discard, conn)
	})
	addr, err := silent.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	_, attest := newTestEnclave(t)

	remote, err := DialEnclave(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	within(t, "quote", func() {
		if q := remote.Quote([]byte("nonce")); q.Signature != nil {
			t.Errorf("a silent server produced quote %+v", q)
		}
	})
	within(t, "submit", func() {
		if err := remote.Submit("session", []byte("ciphertext")); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("submit err = %v, want the deadline", err)
		}
	})
	within(t, "handshake", func() {
		if err := NewPartyClient(0, attest).Handshake(remote); err == nil {
			t.Error("handshake against a silent server succeeded")
		}
	})
}

// TestReplayedSubmissionOnAClosedSession: an eavesdropper that recorded a
// party's submit request replays it after the job ended and the enclave was
// wiped. The session died with the wipe; the replay draws an error response
// and restores nothing.
func TestReplayedSubmissionOnAClosedSession(t *testing.T) {
	t.Parallel()
	enclave, attest := newTestEnclave(t)
	addr := startServer(t, enclave)
	remote, err := DialEnclave(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	party := NewPartyClient(4, attest)
	if err := party.Handshake(remote); err != nil {
		t.Fatal(err)
	}
	plaintext, _ := json.Marshal(LabelDistributionMsg{PartyID: 4, Counts: []float64{9, 1}})
	ciphertext, err := party.channel.Seal(plaintext, []byte(party.session))
	if err != nil {
		t.Fatal(err)
	}
	recorded := request{Op: "submit", Session: party.session, Ciphertext: ciphertext}
	if _, err := remote.roundTrip(recorded); err != nil {
		t.Fatal(err)
	}
	if err := remote.Wipe(); err != nil {
		t.Fatal(err)
	}

	within(t, "replay", func() {
		replayer, err := DialEnclave(addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer replayer.Close()
		if _, err := replayer.roundTrip(recorded); err == nil || !strings.Contains(err.Error(), "wiped") {
			t.Errorf("replayed submission: err = %v, want the wiped-enclave refusal", err)
		}
	})
	if got := enclave.NumSubmissions(); got != 0 {
		t.Fatalf("replay restored %d label distributions into a wiped enclave", got)
	}
}

// TestQuoteWithTheWrongMeasurement: the hostile peer is the server — an
// enclave booted with other clustering code than the one the parties audited,
// behind a genuine hardware key. Attestation must fail over the wire exactly
// as it does in-process, before any session exists or any label distribution
// leaves the party.
func TestQuoteWithTheWrongMeasurement(t *testing.T) {
	t.Parallel()
	pub, priv, err := GenerateHardwareKey()
	if err != nil {
		t.Fatal(err)
	}
	rogueCode := testCode()
	rogueCode.Version = "v1.0.0-exfiltrating"
	rogue, err := NewEnclave(rogueCode, priv)
	if err != nil {
		t.Fatal(err)
	}
	attest, err := NewAttestationServer(pub, testCode().Measure())
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, rogue)

	within(t, "handshake", func() {
		remote, err := DialEnclave(addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer remote.Close()
		err = SubmitAll(remote, attest, []tensor.Vec{{5, 5}})
		if err == nil || !strings.Contains(err.Error(), "attestation") {
			t.Errorf("err = %v, want the attestation refusal", err)
		}
	})
	if s, n := rogue.numSessions(), rogue.NumSubmissions(); s != 0 || n != 0 {
		t.Fatalf("rogue enclave holds %d sessions and %d distributions", s, n)
	}
}

// TestTruncatedCiphertext: ciphertexts cut below the nonce, inside the
// authentication tag, or to nothing are refused in an error response on a
// connection that stays usable — the intact submission goes through on it
// afterwards.
func TestTruncatedCiphertext(t *testing.T) {
	t.Parallel()
	enclave, attest := newTestEnclave(t)
	addr := startServer(t, enclave)
	remote, err := DialEnclave(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	party := NewPartyClient(2, attest)
	if err := party.Handshake(remote); err != nil {
		t.Fatal(err)
	}
	plaintext, _ := json.Marshal(LabelDistributionMsg{PartyID: 2, Counts: []float64{4, 6}})
	whole, err := party.channel.Seal(plaintext, []byte(party.session))
	if err != nil {
		t.Fatal(err)
	}
	within(t, "truncated submissions", func() {
		for _, keep := range []int{0, 5, party.channel.aead.NonceSize(), len(whole) - 1} {
			if err := remote.Submit(party.session, whole[:keep]); err == nil {
				t.Errorf("ciphertext cut to %d of %d bytes accepted", keep, len(whole))
			}
		}
		if enclave.NumSubmissions() != 0 {
			t.Errorf("a truncated ciphertext installed a distribution")
		}
		if err := remote.Submit(party.session, whole); err != nil {
			t.Errorf("intact submission after the truncated ones: %v", err)
		}
	})
	if got := enclave.NumSubmissions(); got != 1 {
		t.Fatalf("%d submissions recorded, want 1", got)
	}
}
