package tee

import (
	"encoding/json"
	"fmt"

	"flips/internal/tensor"
)

// PartyClient drives the party-side protocol of Figure 3 against an enclave
// reachable through any transport: attest, establish a secure channel, and
// submit the party's label distribution.
type PartyClient struct {
	partyID  int
	attest   *AttestationServer
	channel  *SecureChannel
	session  string
	verified bool
}

// NewPartyClient builds a client for one party. The attestation server is
// the shared verifier of Figure 3.
func NewPartyClient(partyID int, attest *AttestationServer) *PartyClient {
	return &PartyClient{partyID: partyID, attest: attest}
}

// EnclaveAPI is the transport-agnostic surface a party needs from the
// (possibly remote) enclave. *Enclave implements it in-process; RemoteEnclave
// implements it over TCP.
type EnclaveAPI interface {
	Quote(nonce []byte) Quote
	OpenSession(partyPub []byte) (string, error)
	Submit(sessionID string, ciphertext []byte) error
}

var _ EnclaveAPI = (*Enclave)(nil)

// Handshake attests the enclave and establishes the secure channel. It
// fails — and no channel is created — if attestation fails.
func (p *PartyClient) Handshake(enclave EnclaveAPI) error {
	nonce, err := p.attest.NewNonce()
	if err != nil {
		return err
	}
	quote := enclave.Quote(nonce)
	if err := p.attest.Verify(quote); err != nil {
		return fmt.Errorf("attestation: %w", err)
	}
	ch, pub, err := DialChannel(quote.ChannelPub)
	if err != nil {
		return err
	}
	session, err := enclave.OpenSession(pub)
	if err != nil {
		return err
	}
	p.channel = ch
	p.session = session
	p.verified = true
	return nil
}

// SubmitLabelDistribution encrypts and submits the party's label counts.
// Handshake must have succeeded first.
func (p *PartyClient) SubmitLabelDistribution(enclave EnclaveAPI, counts tensor.Vec) error {
	if !p.verified {
		return fmt.Errorf("tee: submit before successful attestation")
	}
	plaintext, err := json.Marshal(LabelDistributionMsg{PartyID: p.partyID, Counts: counts})
	if err != nil {
		return fmt.Errorf("tee: encode label distribution: %w", err)
	}
	ciphertext, err := p.channel.Seal(plaintext, []byte(p.session))
	if err != nil {
		return err
	}
	return enclave.Submit(p.session, ciphertext)
}

// SubmitAll plays every party's side of Figure 3 against one enclave, local
// or remote: party i attests it, opens its own secure channel and submits
// dists[i]. It stops at the first party that fails.
func SubmitAll(enclave EnclaveAPI, attest *AttestationServer, dists []tensor.Vec) error {
	for partyID, counts := range dists {
		client := NewPartyClient(partyID, attest)
		if err := client.Handshake(enclave); err != nil {
			return fmt.Errorf("party %d: %w", partyID, err)
		}
		if err := client.SubmitLabelDistribution(enclave, counts); err != nil {
			return fmt.Errorf("party %d: %w", partyID, err)
		}
	}
	return nil
}
