package tee

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"strings"
	"testing"

	"flips/internal/tensor"
)

func testCode() ClusteringCode {
	return ClusteringCode{Version: "v1.0.0", MaxK: 10, Repeats: 5}
}

func newTestEnclave(t *testing.T) (*Enclave, *AttestationServer) {
	t.Helper()
	pub, priv, err := GenerateHardwareKey()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEnclave(testCode(), priv)
	if err != nil {
		t.Fatal(err)
	}
	attest, err := NewAttestationServer(pub, testCode().Measure())
	if err != nil {
		t.Fatal(err)
	}
	return enc, attest
}

// The enclave exports no view of its sealed state; the tests read it under
// the enclave's own lock.
func (e *Enclave) NumSubmissions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.lds)
}

func (e *Enclave) numSessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

func (e *Enclave) Wiped() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.wiped
}

func TestMeasurementDeterministicAndSensitive(t *testing.T) {
	m1 := testCode().Measure()
	m2 := testCode().Measure()
	if m1 != m2 {
		t.Fatal("measurement not deterministic")
	}
	tampered := testCode()
	tampered.Version = "v1.0.1-evil"
	if tampered.Measure() == m1 {
		t.Fatal("version change did not change measurement")
	}
	reconfigured := testCode()
	reconfigured.MaxK = 11
	if reconfigured.Measure() == m1 {
		t.Fatal("config change did not change measurement")
	}
}

func TestAttestationSucceeds(t *testing.T) {
	enclave, attest := newTestEnclave(t)
	nonce, err := attest.NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	if err := attest.Verify(enclave.Quote(nonce)); err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}
}

func TestAttestationRejectsWrongMeasurement(t *testing.T) {
	_, hwPriv, _ := GenerateHardwareKey()
	evilCode := ClusteringCode{Version: "evil", MaxK: 10, Repeats: 5}
	evilEnclave, err := NewEnclave(evilCode, hwPriv)
	if err != nil {
		t.Fatal(err)
	}
	attest, err := NewAttestationServer(hwPriv.Public().(ed25519.PublicKey), testCode().Measure())
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := attest.NewNonce()
	if err := attest.Verify(evilEnclave.Quote(nonce)); err == nil {
		t.Fatal("tampered enclave passed attestation")
	}
}

func TestAttestationRejectsForgedSignature(t *testing.T) {
	enclave, attest := newTestEnclave(t)
	nonce, _ := attest.NewNonce()
	quote := enclave.Quote(nonce)
	quote.Signature[0] ^= 0xFF
	if err := attest.Verify(quote); err == nil {
		t.Fatal("forged signature accepted")
	}
}

func TestAttestationRejectsReplayedNonce(t *testing.T) {
	enclave, attest := newTestEnclave(t)
	nonce, _ := attest.NewNonce()
	quote := enclave.Quote(nonce)
	if err := attest.Verify(quote); err != nil {
		t.Fatal(err)
	}
	if err := attest.Verify(quote); err == nil {
		t.Fatal("replayed quote accepted")
	}
}

func TestAttestationRejectsUnknownNonce(t *testing.T) {
	enclave, attest := newTestEnclave(t)
	quote := enclave.Quote([]byte("attacker-chosen"))
	if err := attest.Verify(quote); err == nil {
		t.Fatal("unissued nonce accepted")
	}
}

func TestAttestationRejectsChannelKeySwap(t *testing.T) {
	// A MITM substituting its own channel key must break the signature.
	enclave, attest := newTestEnclave(t)
	nonce, _ := attest.NewNonce()
	quote := enclave.Quote(nonce)
	quote.ChannelPub[3] ^= 0x01
	if err := attest.Verify(quote); err == nil {
		t.Fatal("channel-key substitution accepted")
	}
}

func TestSecureChannelRoundTrip(t *testing.T) {
	enclave, _ := newTestEnclave(t)
	ch, pub, err := DialChannel(enclave.Quote(nil).ChannelPub)
	if err != nil {
		t.Fatal(err)
	}
	session, err := enclave.OpenSession(pub)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := json.Marshal(LabelDistributionMsg{PartyID: 7, Counts: []float64{1, 2, 3}})
	ct, err := ch.Seal(msg, []byte(session))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct, []byte(`"counts"`)) {
		t.Fatal("ciphertext leaks plaintext structure")
	}
	if err := enclave.Submit(session, ct); err != nil {
		t.Fatal(err)
	}
	if enclave.NumSubmissions() != 1 {
		t.Fatalf("submissions %d", enclave.NumSubmissions())
	}
}

func TestSubmitRejectsTamperedCiphertext(t *testing.T) {
	enclave, _ := newTestEnclave(t)
	ch, pub, _ := DialChannel(enclave.Quote(nil).ChannelPub)
	session, _ := enclave.OpenSession(pub)
	msg, _ := json.Marshal(LabelDistributionMsg{PartyID: 1, Counts: []float64{5}})
	ct, _ := ch.Seal(msg, []byte(session))
	ct[len(ct)-1] ^= 0x01
	if err := enclave.Submit(session, ct); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
}

func TestSubmitRejectsWrongSession(t *testing.T) {
	enclave, _ := newTestEnclave(t)
	ch, pub, _ := DialChannel(enclave.Quote(nil).ChannelPub)
	session, _ := enclave.OpenSession(pub)
	msg, _ := json.Marshal(LabelDistributionMsg{PartyID: 1, Counts: []float64{5}})
	ct, _ := ch.Seal(msg, []byte(session))
	if err := enclave.Submit("bogus-session", ct); err == nil {
		t.Fatal("unknown session accepted")
	}
}

func TestPartyClientFullFlow(t *testing.T) {
	enclave, attest := newTestEnclave(t)
	for party := 0; party < 12; party++ {
		client := NewPartyClient(party, attest)
		if err := client.Handshake(enclave); err != nil {
			t.Fatalf("party %d handshake: %v", party, err)
		}
		ld := tensor.Vec{float64(10 + party), float64(party % 3), 1}
		if err := client.SubmitLabelDistribution(enclave, ld); err != nil {
			t.Fatalf("party %d submit: %v", party, err)
		}
	}
	if enclave.NumSubmissions() != 12 {
		t.Fatalf("submissions %d", enclave.NumSubmissions())
	}
}

func TestSubmitBeforeHandshakeFails(t *testing.T) {
	enclave, attest := newTestEnclave(t)
	client := NewPartyClient(0, attest)
	if err := client.SubmitLabelDistribution(enclave, tensor.Vec{1}); err == nil {
		t.Fatal("submit without handshake accepted")
	}
}

func TestClusterAndSelectInsideEnclave(t *testing.T) {
	enclave, attest := newTestEnclave(t)
	// Three groups of parties with distinct label distributions.
	groups := [][]float64{{100, 1, 1}, {1, 100, 1}, {1, 1, 100}}
	const perGroup = 8
	for party := 0; party < 3*perGroup; party++ {
		client := NewPartyClient(party, attest)
		if err := client.Handshake(enclave); err != nil {
			t.Fatal(err)
		}
		if err := client.SubmitLabelDistribution(enclave, groups[party/perGroup]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enclave.Cluster(42); err != nil {
		t.Fatal(err)
	}
	n, err := enclave.NumClusters()
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 || n > 4 {
		t.Fatalf("clustered into %d groups, want ~3", n)
	}
	sel, err := enclave.SelectParticipants(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 6 {
		t.Fatalf("selected %d parties", len(sel))
	}
	seen := map[int]bool{}
	for _, id := range sel {
		if id < 0 || id >= 3*perGroup || seen[id] {
			t.Fatalf("bad selection %v", sel)
		}
		seen[id] = true
	}
}

func TestClusterWithoutSubmissionsFails(t *testing.T) {
	enclave, _ := newTestEnclave(t)
	if err := enclave.Cluster(1); err == nil {
		t.Fatal("clustering with no data succeeded")
	}
	if _, err := enclave.SelectParticipants(0, 3); err == nil {
		t.Fatal("selection without clustering succeeded")
	}
}

func TestWipeDeletesEverything(t *testing.T) {
	enclave, attest := newTestEnclave(t)
	client := NewPartyClient(0, attest)
	if err := client.Handshake(enclave); err != nil {
		t.Fatal(err)
	}
	if err := client.SubmitLabelDistribution(enclave, tensor.Vec{3, 4}); err != nil {
		t.Fatal(err)
	}
	enclave.Wipe()
	if !enclave.Wiped() {
		t.Fatal("Wiped() false after Wipe")
	}
	if enclave.NumSubmissions() != 0 {
		t.Fatal("submissions survive Wipe")
	}
	if err := client.SubmitLabelDistribution(enclave, tensor.Vec{1}); err == nil {
		t.Fatal("submit accepted after Wipe")
	}
	if _, err := enclave.SelectParticipants(0, 1); err == nil {
		t.Fatal("selection accepted after Wipe")
	}
}

func TestObserveRoundDrivesOverprovisioning(t *testing.T) {
	enclave, attest := newTestEnclave(t)
	groups := [][]float64{{50, 1}, {1, 50}}
	for party := 0; party < 8; party++ {
		client := NewPartyClient(party, attest)
		if err := client.Handshake(enclave); err != nil {
			t.Fatal(err)
		}
		if err := client.SubmitLabelDistribution(enclave, groups[party/4]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enclave.Cluster(7); err != nil {
		t.Fatal(err)
	}
	sel, err := enclave.SelectParticipants(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := enclave.ObserveRound(sel, sel[2:], sel[:2], 0); err != nil {
		t.Fatal(err)
	}
	next, err := enclave.SelectParticipants(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(next) <= 4 {
		t.Fatalf("no over-provisioning after stragglers: %d parties", len(next))
	}
}

func TestHKDFDeterministicAndLengths(t *testing.T) {
	a := hkdfSHA256([]byte("secret"), []byte("salt"), []byte("info"), 32)
	b := hkdfSHA256([]byte("secret"), []byte("salt"), []byte("info"), 32)
	if !bytes.Equal(a, b) {
		t.Fatal("hkdf not deterministic")
	}
	if len(hkdfSHA256([]byte("s"), nil, nil, 100)) != 100 {
		t.Fatal("hkdf length")
	}
	c := hkdfSHA256([]byte("secret2"), []byte("salt"), []byte("info"), 32)
	if bytes.Equal(a, c) {
		t.Fatal("different secrets produced same key")
	}
}

func TestTCPEndToEnd(t *testing.T) {
	enclave, attest := newTestEnclave(t)
	server := NewServer(enclave)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	groups := [][]float64{{90, 1, 1}, {1, 90, 1}, {1, 1, 90}}
	for party := 0; party < 9; party++ {
		remote, err := DialEnclave(addr)
		if err != nil {
			t.Fatal(err)
		}
		client := NewPartyClient(party, attest)
		if err := client.Handshake(remote); err != nil {
			t.Fatalf("party %d remote handshake: %v", party, err)
		}
		if err := client.SubmitLabelDistribution(remote, groups[party/3]); err != nil {
			t.Fatalf("party %d remote submit: %v", party, err)
		}
		remote.Close()
	}

	agg, err := DialEnclave(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if err := agg.Cluster(42); err != nil {
		t.Fatal(err)
	}
	n, err := agg.NumClusters()
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("remote clustering found %d clusters", n)
	}
	sel, err := agg.SelectParticipants(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 {
		t.Fatalf("remote selection returned %v", sel)
	}
	if err := agg.ObserveRound(sel, sel, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := agg.Wipe(); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.SelectParticipants(1, 3); err == nil {
		t.Fatal("remote selection succeeded after wipe")
	}
}

func TestTCPRejectsUnknownOp(t *testing.T) {
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
	_, err = remote.roundTrip(request{Op: "steal-label-distributions"})
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("unknown op error = %v", err)
	}
}

func TestRemoteQuoteFailsClosed(t *testing.T) {
	// A dead transport must yield a quote that fails verification rather
	// than a panic or a silently-trusted channel.
	enclave, attest := newTestEnclave(t)
	server := NewServer(enclave)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := DialEnclave(addr)
	if err != nil {
		t.Fatal(err)
	}
	server.Close()
	remote.Close()
	client := NewPartyClient(0, attest)
	if err := client.Handshake(remote); err == nil {
		t.Fatal("handshake succeeded over dead transport")
	}
}
