package tee

import (
	"context"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"flips/internal/core"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// Quote is the enclave's attestation evidence: an ed25519 signature (by the
// simulated hardware key) over the measurement, the verifier's nonce and the
// enclave's channel public key, binding the secure channel to the attested
// code.
type Quote struct {
	Measurement Measurement `json:"measurement"`
	Nonce       []byte      `json:"nonce"`
	ChannelPub  []byte      `json:"channelPub"`
	Signature   []byte      `json:"signature"`
}

func quoteDigest(m Measurement, nonce, channelPub []byte) []byte {
	buf := make([]byte, 0, len(m)+len(nonce)+len(channelPub)+12)
	buf = append(buf, m[:]...)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(nonce)))
	buf = append(buf, n[:]...)
	buf = append(buf, nonce...)
	binary.BigEndian.PutUint32(n[:], uint32(len(channelPub)))
	buf = append(buf, n[:]...)
	buf = append(buf, channelPub...)
	return buf
}

// LabelDistributionMsg is the plaintext a party encrypts to the enclave.
type LabelDistributionMsg struct {
	PartyID int       `json:"partyId"`
	Counts  []float64 `json:"counts"`
}

// Enclave simulates the aggregator-side secure enclave holding the
// clustering code. All party-identifiable state (label distributions,
// cluster membership) is unexported and never returned by any method.
type Enclave struct {
	code        ClusteringCode
	measurement Measurement
	hwKey       ed25519.PrivateKey

	mu       sync.Mutex
	chanPriv *ecdh.PrivateKey
	sessions map[string]*SecureChannel
	lds      map[int]tensor.Vec
	ids      []int // the clustered party ids, ascending; the selector's party i is ids[i]
	selector *core.Selector
	wiped    bool
}

// NewEnclave "boots" an enclave with the given clustering code. hwKey is the
// hardware attestation key the manufacturer provisioned; its public half is
// registered with the attestation service.
func NewEnclave(code ClusteringCode, hwKey ed25519.PrivateKey) (*Enclave, error) {
	if len(hwKey) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("tee: invalid hardware key size %d", len(hwKey))
	}
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("tee: channel key: %w", err)
	}
	return &Enclave{
		code:        code,
		measurement: code.Measure(),
		hwKey:       hwKey,
		chanPriv:    priv,
		sessions:    make(map[string]*SecureChannel),
		lds:         make(map[int]tensor.Vec),
	}, nil
}

// Measurement returns the enclave's code measurement (public information).
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Quote produces attestation evidence for the verifier's nonce.
func (e *Enclave) Quote(nonce []byte) Quote {
	pub := e.chanPriv.PublicKey().Bytes()
	return Quote{
		Measurement: e.measurement,
		Nonce:       append([]byte(nil), nonce...),
		ChannelPub:  pub,
		Signature:   ed25519.Sign(e.hwKey, quoteDigest(e.measurement, nonce, pub)),
	}
}

// OpenSession completes the enclave side of the X25519 agreement with a
// party's ephemeral public key and returns an opaque session id.
func (e *Enclave) OpenSession(partyPub []byte) (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wiped {
		return "", errWiped
	}
	peer, err := ecdh.X25519().NewPublicKey(partyPub)
	if err != nil {
		return "", fmt.Errorf("tee: party public key: %w", err)
	}
	shared, err := e.chanPriv.ECDH(peer)
	if err != nil {
		return "", fmt.Errorf("tee: ecdh: %w", err)
	}
	ch, err := newSecureChannel(shared, nil)
	if err != nil {
		return "", err
	}
	var idBytes [16]byte
	if _, err := rand.Read(idBytes[:]); err != nil {
		return "", fmt.Errorf("tee: session id: %w", err)
	}
	id := fmt.Sprintf("%x", idBytes)
	e.sessions[id] = ch
	return id, nil
}

var errWiped = fmt.Errorf("tee: enclave has been wiped")

// Submit decrypts a party's label distribution inside the enclave. The
// plaintext never leaves this method.
func (e *Enclave) Submit(sessionID string, ciphertext []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wiped {
		return errWiped
	}
	ch, ok := e.sessions[sessionID]
	if !ok {
		return fmt.Errorf("tee: unknown session %q", sessionID)
	}
	plaintext, err := ch.Open(ciphertext, []byte(sessionID))
	if err != nil {
		return err
	}
	var msg LabelDistributionMsg
	if err := json.Unmarshal(plaintext, &msg); err != nil {
		return fmt.Errorf("tee: label distribution decode: %w", err)
	}
	if msg.PartyID < 0 {
		return fmt.Errorf("tee: negative party id %d", msg.PartyID)
	}
	if len(msg.Counts) == 0 {
		return fmt.Errorf("tee: empty label distribution from party %d", msg.PartyID)
	}
	// Every vector must have the length of those accepted before it, or the
	// clustering cannot compare them.
	for _, ld := range e.lds {
		if len(ld) != len(msg.Counts) {
			return fmt.Errorf("tee: party %d submitted %d label counts, the job has %d", msg.PartyID, len(msg.Counts), len(ld))
		}
		break
	}
	for _, c := range msg.Counts {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("tee: party %d submitted label count %v", msg.PartyID, c)
		}
	}
	e.lds[msg.PartyID] = append(tensor.Vec(nil), msg.Counts...)
	return nil
}

// Cluster runs the measured clustering code over the submitted label
// distributions and installs the FLIPS selector inside the enclave. seed
// fixes the K-Means randomness for reproducibility.
func (e *Enclave) Cluster(seed uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wiped {
		return errWiped
	}
	if len(e.lds) == 0 {
		return fmt.Errorf("tee: no label distributions submitted")
	}
	// Ascending party-id order: the selector speaks indices into ids.
	ids := make([]int, 0, len(e.lds))
	for id := range e.lds {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	points := make([]tensor.Vec, len(ids))
	for i, id := range ids {
		points[i] = e.lds[id]
	}
	clusters, err := core.ClusterLabelDistributionsContext(context.Background(), points, e.code.MaxK, e.code.Repeats, rng.New(seed))
	if err != nil {
		return err
	}
	sel, err := core.NewSelector(clusters)
	if err != nil {
		return err
	}
	e.ids, e.selector = ids, sel
	return nil
}

// indices maps party ids sent from outside to the selector's indices,
// refusing an id that was never clustered.
func (e *Enclave) indices(ids []int) ([]int, error) {
	out := make([]int, len(ids))
	for i, id := range ids {
		j := sort.SearchInts(e.ids, id)
		if j == len(e.ids) || e.ids[j] != id {
			return nil, fmt.Errorf("tee: party %d was never clustered", id)
		}
		out[i] = j
	}
	return out, nil
}

// NumClusters reports |C| (aggregate information the aggregator may see).
func (e *Enclave) NumClusters() (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.selector == nil {
		return 0, fmt.Errorf("tee: clustering has not run")
	}
	return e.selector.NumClusters(), nil
}

// SelectParticipants runs FLIPS participant selection inside the enclave and
// returns only the selected party IDs — never cluster membership.
func (e *Enclave) SelectParticipants(round, target int) ([]int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wiped {
		return nil, errWiped
	}
	if e.selector == nil {
		return nil, fmt.Errorf("tee: clustering has not run")
	}
	if target < 0 {
		return nil, fmt.Errorf("tee: negative selection target %d", target)
	}
	picks := e.selector.Select(round, target)
	for i, p := range picks {
		picks[i] = e.ids[p]
	}
	return picks, nil
}

// ObserveRound forwards round feedback to the in-enclave selector so
// straggler over-provisioning works.
func (e *Enclave) ObserveRound(selected, completed, stragglers []int, round int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wiped {
		return errWiped
	}
	if e.selector == nil {
		return fmt.Errorf("tee: clustering has not run")
	}
	// Every id is mapped before any is observed, so a refused round changes
	// nothing.
	var mapped [3][]int
	for k, ids := range [3][]int{selected, completed, stragglers} {
		var err error
		if mapped[k], err = e.indices(ids); err != nil {
			return err
		}
	}
	e.selector.Observe(feedback(round, mapped[0], mapped[1], mapped[2]))
	return nil
}

// Wipe deletes all party state, mirroring the paper's "deletes all
// information at the end of the FL job (this can be attested)". Subsequent
// operations fail.
func (e *Enclave) Wipe() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for id := range e.lds {
		delete(e.lds, id)
	}
	for id := range e.sessions {
		delete(e.sessions, id)
	}
	e.ids, e.selector = nil, nil
	e.wiped = true
}
