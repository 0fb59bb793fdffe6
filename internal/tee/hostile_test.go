package tee

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"slices"
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

// TestMalformedSubmissions: three sealed, well-framed submissions whose
// content the clustering cannot take as it is — a label vector shorter than
// the ones accepted before it, a negative count, and a party ID at the top of
// the int range. The first two are refused in an error response; the third is
// accepted and clustered like any other party. After each, the honest
// parties' cluster and select are still served by the same server: no panic,
// no hang.
func TestMalformedSubmissions(t *testing.T) {
	t.Parallel()
	honest := []tensor.Vec{{9, 1, 1}, {9, 2, 1}, {1, 9, 1}, {2, 9, 1}, {1, 1, 9}, {1, 2, 9}}
	for _, tc := range []struct {
		name    string
		party   int
		counts  tensor.Vec
		refused bool
	}{
		{"shorter label vector", 6, tensor.Vec{5, 5}, true},
		{"negative count", 6, tensor.Vec{5, -1, 5}, true},
		{"party id at MaxInt64", math.MaxInt, tensor.Vec{5, 5, 5}, false}, // MaxInt32 on 32-bit GOARCHes
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			enclave, attest := newTestEnclave(t)
			addr := startServer(t, enclave)
			within(t, tc.name, func() {
				remote, err := DialEnclave(addr)
				if err != nil {
					t.Error(err)
					return
				}
				defer remote.Close()
				if err := SubmitAll(remote, attest, honest); err != nil {
					t.Error(err)
					return
				}
				hostile := NewPartyClient(tc.party, attest)
				if err := hostile.Handshake(remote); err != nil {
					t.Error(err)
					return
				}
				err = hostile.SubmitLabelDistribution(remote, tc.counts)
				if tc.refused && err == nil {
					t.Errorf("party %d's counts %v accepted", tc.party, tc.counts)
				} else if !tc.refused && err != nil {
					t.Errorf("party %d's counts %v refused: %v", tc.party, tc.counts, err)
				}
				if err := remote.Cluster(7); err != nil {
					t.Errorf("cluster after the submission: %v", err)
					return
				}
				if sel, err := remote.SelectParticipants(0, 3); err != nil || len(sel) != 3 {
					t.Errorf("select after the submission: %v, %v", sel, err)
				}
			})
			want := len(honest)
			if !tc.refused {
				want++
			}
			if got := enclave.NumSubmissions(); got != want {
				t.Fatalf("%d submissions recorded, want %d", got, want)
			}
		})
	}
}

// TestHostileSelectAndObserve: well-framed aggregator requests the selector
// cannot take as they are — a select with target −1, and observes that name
// a party the enclave never clustered (as a straggler, as completed, as
// selected, beside a clustered one) — each draw an error reply on a
// connection that stays usable, and the server stays up. A refused observe
// changes nothing: the next select invites exactly its target, with no
// over-provisioning for a straggler that was never clustered.
func TestHostileSelectAndObserve(t *testing.T) {
	t.Parallel()
	enclave, attest := newTestEnclave(t)
	addr := startServer(t, enclave)
	within(t, "hostile select and observe", func() {
		remote, err := DialEnclave(addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer remote.Close()
		honest := []tensor.Vec{{9, 1, 1}, {9, 2, 1}, {1, 9, 1}, {2, 9, 1}, {1, 1, 9}, {1, 2, 9}}
		if err := SubmitAll(remote, attest, honest); err != nil {
			t.Error(err)
			return
		}
		if err := remote.Cluster(7); err != nil {
			t.Error(err)
			return
		}
		if sel, err := remote.SelectParticipants(0, -1); err == nil {
			t.Errorf("select with target -1 answered %v", sel)
		}
		for _, tc := range []struct {
			name                            string
			selected, completed, stragglers []int
		}{
			{"straggler", []int{6}, nil, []int{6}},
			{"completed", []int{6}, []int{6}, nil},
			{"selected", []int{-1}, nil, nil},
			{"beside a clustered one", []int{0, math.MaxInt}, []int{0}, []int{math.MaxInt}},
		} {
			err := remote.ObserveRound(tc.selected, tc.completed, tc.stragglers, 0)
			if err == nil || !strings.Contains(err.Error(), "never clustered") {
				t.Errorf("observe naming an unclustered party (%s): err = %v, want the refusal", tc.name, err)
			}
		}
		if sel, err := remote.SelectParticipants(1, 4); err != nil || len(sel) != 4 {
			t.Errorf("select after the refused requests: %v, %v; want 4 parties, none over-provisioned", sel, err)
		}
	})
}

// TestSparsePartyIDsRoundTrip: parties 5, 17, 2^40 and MaxInt64 (2^8 and
// MaxInt32 where int is 32 bits) — ids far from the selector's dense indices,
// submitted out of order — cluster, select
// and observe over TCP exactly as parties 0–3 with the same label
// distributions do in-process, id for id, over-provisioning included.
func TestSparsePartyIDsRoundTrip(t *testing.T) {
	t.Parallel()
	ids := []int{5, 17, math.MaxInt>>23 + 1, math.MaxInt}
	dists := []tensor.Vec{{9, 1}, {1, 9}, {8, 2}, {2, 8}}
	dense, denseAttest := newTestEnclave(t)
	if err := SubmitAll(dense, denseAttest, dists); err != nil {
		t.Fatal(err)
	}
	if err := dense.Cluster(7); err != nil {
		t.Fatal(err)
	}
	enclave, attest := newTestEnclave(t)
	addr := startServer(t, enclave)
	within(t, "sparse ids", func() {
		remote, err := DialEnclave(addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer remote.Close()
		for _, i := range []int{3, 0, 2, 1} {
			party := NewPartyClient(ids[i], attest)
			if err := party.Handshake(remote); err != nil {
				t.Error(err)
				return
			}
			if err := party.SubmitLabelDistribution(remote, dists[i]); err != nil {
				t.Error(err)
				return
			}
		}
		if err := remote.Cluster(7); err != nil {
			t.Error(err)
			return
		}
		overprovisioned := false
		for round, target := range []int{1, 2, 2, 3, 1, 2} {
			want, err := dense.SelectParticipants(round, target)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := remote.SelectParticipants(round, target)
			if err != nil {
				t.Error(err)
				return
			}
			for i, d := range want {
				want[i] = ids[d]
			}
			if !slices.Equal(got, want) {
				t.Errorf("round %d: selected %v, want %v", round, got, want)
				return
			}
			overprovisioned = overprovisioned || len(got) > target
			// The first invited party straggles, the rest complete.
			if err := remote.ObserveRound(got, got[1:], got[:1], round); err != nil {
				t.Errorf("round %d: observe: %v", round, err)
				return
			}
			for i, id := range got {
				want[i] = slices.Index(ids, id)
			}
			if err := dense.ObserveRound(want, want[1:], want[:1], round); err != nil {
				t.Error(err)
				return
			}
		}
		if !overprovisioned {
			t.Error("no round over-provisioned: the stragglers never reached the selector")
		}
	})
}
