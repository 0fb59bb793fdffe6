package tee

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"sync"

	"flips/internal/fl"
)

// AttestationServer is the service all parties share to verify the
// aggregator's TEE (Figure 3). It is provisioned with the hardware vendor's
// public key and the expected measurement of the clustering code.
type AttestationServer struct {
	hwPub    ed25519.PublicKey
	expected Measurement

	mu     sync.Mutex
	nonces map[string]bool // issued, not-yet-consumed nonces
}

// NewAttestationServer provisions a verifier.
func NewAttestationServer(hwPub ed25519.PublicKey, expected Measurement) (*AttestationServer, error) {
	if len(hwPub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("tee: invalid hardware public key size %d", len(hwPub))
	}
	return &AttestationServer{
		hwPub:    hwPub,
		expected: expected,
		nonces:   make(map[string]bool),
	}, nil
}

// NewNonce issues a fresh challenge nonce for a verification round.
func (a *AttestationServer) NewNonce() ([]byte, error) {
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("tee: nonce: %w", err)
	}
	a.mu.Lock()
	a.nonces[string(nonce)] = true
	a.mu.Unlock()
	return nonce, nil
}

// Verify checks a quote: the signature must verify under the hardware key,
// the measurement must equal the expected clustering code, and the nonce
// must be one this server issued (replay protection; each nonce verifies
// once).
func (a *AttestationServer) Verify(q Quote) error {
	a.mu.Lock()
	fresh := a.nonces[string(q.Nonce)]
	if fresh {
		delete(a.nonces, string(q.Nonce))
	}
	a.mu.Unlock()
	if !fresh {
		return fmt.Errorf("tee: unknown or replayed nonce")
	}
	if q.Measurement != a.expected {
		return fmt.Errorf("tee: measurement mismatch: enclave runs %s, expected %s",
			q.Measurement, a.expected)
	}
	if !ed25519.Verify(a.hwPub, quoteDigest(q.Measurement, q.Nonce, q.ChannelPub), q.Signature) {
		return fmt.Errorf("tee: quote signature invalid")
	}
	return nil
}

// GenerateHardwareKey simulates the manufacturer provisioning an attestation
// key pair into the TEE hardware.
func GenerateHardwareKey() (ed25519.PublicKey, ed25519.PrivateKey, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("tee: hardware key: %w", err)
	}
	return pub, priv, nil
}

// feedback adapts raw round outcomes to the selector's feedback type: each
// completed ID becomes a report carrying only its ID.
func feedback(round int, selected, completed, stragglers []int) fl.RoundFeedback {
	reports := make([]fl.PartyReport, len(completed))
	for i, id := range completed {
		reports[i].ID = id
	}
	return fl.RoundFeedback{
		Round:      round,
		Selected:   selected,
		Completed:  reports,
		Stragglers: stragglers,
	}
}
