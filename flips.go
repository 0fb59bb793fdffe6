// Package flips is the public API of the FLIPS reproduction: Federated
// Learning using Intelligent Participant Selection (Bhope et al.,
// MIDDLEWARE 2023).
//
// Two entry points cover the two ways downstream users consume FLIPS:
//
//   - Middleware embeds FLIPS participant selection into an existing FL
//     system: construct it from the parties' label distributions (optionally
//     inside a simulated TEE with remote attestation via NewPrivateMiddleware)
//     and call SelectParticipants each round.
//
//   - RunSimulation and RunExperiment drive the full evaluation stack —
//     synthetic workloads, Dirichlet non-IID partitioning, the registered
//     selection strategies, seven FL algorithms, straggler emulation.
//     RunExperiment regenerates any artifact Experiments() lists: the paper's
//     Tables 1–24 and Figures 2, 5–13, and the sweeps beyond them.
//
// See DESIGN.md for the system inventory.
package flips

import (
	"fmt"
	"sync"

	"flips/internal/core"
	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tee"
	"flips/internal/tensor"
)

// MiddlewareOptions configures label-distribution clustering.
type MiddlewareOptions struct {
	// MaxK bounds the Davies-Bouldin sweep for the optimal cluster count;
	// 0 derives it from the party count.
	MaxK int
	// Repeats is the K-Means restart count per k (default 20, the paper's T).
	Repeats int
	// Seed fixes clustering randomness.
	Seed uint64
}

// toVecs copies the caller's label distributions.
func toVecs(labelDists [][]float64) []tensor.Vec {
	lds := make([]tensor.Vec, len(labelDists))
	for i, d := range labelDists {
		lds[i] = append(tensor.Vec(nil), d...)
	}
	return lds
}

// maxK resolves the sweep bound for n parties.
func (o MiddlewareOptions) maxK(n int) int {
	if o.MaxK > 0 {
		return o.MaxK
	}
	return core.DefaultMaxK(n)
}

// Middleware is the FLIPS participant-selection middleware: it clusters
// parties by label distribution once, then serves equitable, straggler-aware
// selections for every FL round (Algorithm 1 of the paper).
//
// A Middleware is safe for concurrent use: an embedding FL system may serve
// SelectParticipants and ReportRound from multiple aggregator goroutines.
// Selection state advances atomically per call, so concurrent rounds observe
// a consistent (if interleaved) pick-count and straggler history.
type Middleware struct {
	mu       sync.Mutex
	selector *core.Selector
	enclave  *tee.Enclave
}

// NewMiddleware clusters the parties' label distributions (labelDists[i] is
// party i's per-label sample counts) and returns a ready selector.
func NewMiddleware(labelDists [][]float64, opts MiddlewareOptions) (*Middleware, error) {
	if len(labelDists) == 0 {
		return nil, fmt.Errorf("flips: no label distributions")
	}
	lds := toVecs(labelDists)
	clusters, err := core.ClusterLabelDistributions(lds, opts.maxK(len(lds)), opts.Repeats, rng.New(opts.Seed))
	if err != nil {
		return nil, err
	}
	selector, err := core.NewSelector(clusters)
	if err != nil {
		return nil, err
	}
	return &Middleware{selector: selector}, nil
}

// NewPrivateMiddleware runs the full private-clustering protocol of paper
// §3.3 in-process: it boots a simulated TEE with the clustering code, has
// every party attest the enclave and submit its label distribution over an
// encrypted channel, and clusters inside the enclave. Label distributions
// and cluster membership never leave the enclave.
func NewPrivateMiddleware(labelDists [][]float64, opts MiddlewareOptions) (*Middleware, error) {
	if len(labelDists) == 0 {
		return nil, fmt.Errorf("flips: no label distributions")
	}
	lds := toVecs(labelDists)
	repeats := opts.Repeats
	if repeats <= 0 {
		repeats = 20
	}
	code := tee.ClusteringCode{Version: tee.CodeVersion, MaxK: opts.maxK(len(lds)), Repeats: repeats}
	hwPub, hwPriv, err := tee.GenerateHardwareKey()
	if err != nil {
		return nil, err
	}
	enclave, err := tee.NewEnclave(code, hwPriv)
	if err != nil {
		return nil, err
	}
	attest, err := tee.NewAttestationServer(hwPub, code.Measure())
	if err != nil {
		return nil, err
	}
	if err := tee.SubmitAll(enclave, attest, lds); err != nil {
		return nil, err
	}
	if err := enclave.Cluster(opts.Seed); err != nil {
		return nil, err
	}
	return &Middleware{enclave: enclave}, nil
}

// SelectParticipants returns the party IDs for round r with nominal size
// target (FLIPS may over-provision while stragglers are outstanding).
func (m *Middleware) SelectParticipants(round, target int) ([]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.enclave != nil {
		return m.enclave.SelectParticipants(round, target)
	}
	return m.selector.Select(round, target), nil
}

// ReportRound feeds the round outcome back so straggler over-provisioning
// adapts (Algorithm 1 lines 33–45).
func (m *Middleware) ReportRound(round int, selected, completed, stragglers []int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.enclave != nil {
		return m.enclave.ObserveRound(selected, completed, stragglers, round)
	}
	m.selector.Observe(fl.RoundFeedback{
		Round:      round,
		Selected:   selected,
		Completed:  completed,
		Stragglers: stragglers,
	})
	return nil
}

// NumClusters reports how many label-distribution clusters were found.
func (m *Middleware) NumClusters() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.enclave != nil {
		return m.enclave.NumClusters()
	}
	return m.selector.NumClusters(), nil
}

// Close wipes TEE state (no-op for the plain middleware).
func (m *Middleware) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.enclave != nil {
		m.enclave.Wipe()
	}
}
