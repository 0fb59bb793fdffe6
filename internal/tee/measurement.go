// Package tee simulates the trusted-execution-environment workflow of FLIPS
// §3.3 / Figure 3 with real cryptography from the Go standard library:
//
//   - an Enclave that holds the clustering code and the parties' label
//     distributions, with a SHA-256 code measurement,
//   - remote attestation: the enclave's quote (an ed25519 signature binding
//     measurement, nonce and the enclave's channel key) is verified against
//     an AttestationServer provisioned with the expected measurement,
//   - secure channels: X25519 key agreement + HKDF-SHA256 key derivation +
//     AES-256-GCM, so label distributions never cross the wire in plaintext,
//   - private clustering and participant selection inside the enclave:
//     parties never learn cluster membership, only whether they are selected
//     (§3.3 "we treat cluster membership as private information"),
//   - end-of-job Wipe, mirroring "the TEE ... deletes all information at the
//     end of the FL job".
//
// The hardware isolation itself (AMD SEV in the paper) is simulated by Go's
// type system: the Enclave struct keeps its state unexported and its API
// never returns label distributions or cluster membership.
package tee

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Measurement is the SHA-256 digest of the enclave's initial contents (the
// clustering code identity and its configuration), the value a TEE's
// hardware would report in an attestation quote.
type Measurement [32]byte

// String renders the measurement as hex.
func (m Measurement) String() string { return hex.EncodeToString(m[:]) }

// CodeVersion names the clustering implementation this repository loads into
// its enclaves. It is part of the measurement: an enclave booted from other
// code fails attestation.
const CodeVersion = "flips-kmeans-v1"

// ClusteringCode identifies the code loaded into the enclave. Any change to
// these fields changes the measurement and breaks attestation, exactly like
// re-building an SEV/SGX image.
type ClusteringCode struct {
	// Version names the clustering implementation revision.
	Version string
	// MaxK bounds the Davies-Bouldin sweep for optimal k.
	MaxK int
	// Repeats is the per-k K-Means restart count (the paper's T=20).
	Repeats int
}

// Measure computes the enclave measurement of the clustering code.
func (c ClusteringCode) Measure() Measurement {
	h := sha256.New()
	h.Write([]byte("flips-tee-clustering-v1\x00"))
	h.Write([]byte(c.Version))
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(int64(c.MaxK)))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(int64(c.Repeats)))
	h.Write(buf[:])
	var m Measurement
	copy(m[:], h.Sum(nil))
	return m
}
