package experiment

import (
	"fmt"
	"io"
	"time"

	"flips/internal/core"
	"flips/internal/dataset"
	"flips/internal/partition"
	"flips/internal/rng"
	"flips/internal/tee"
)

// TEEOverheadResult reproduces the §5.1 measurement: clustering label
// distributions directly vs inside the TEE. The paper reports ≈5% overhead
// (105.4ms vs 100.5ms for 200 parties) for the clustering computation under
// AMD SEV; the per-party attestation/secure-channel protocol is a separate
// one-time setup cost and is reported separately here.
type TEEOverheadResult struct {
	Parties int
	// Plain is clustering time outside any enclave.
	Plain time.Duration
	// InEnclave is the in-enclave clustering time (the §5.1 comparison).
	InEnclave time.Duration
	// OverheadPct is (InEnclave-Plain)/Plain in percent.
	OverheadPct float64
	// Protocol is the one-time cost of attesting and submitting all
	// parties' label distributions over encrypted channels.
	Protocol time.Duration
	PlainK   int
	EnclaveK int
}

// RunTEEOverhead measures plain vs in-enclave clustering over the ECG
// workload's label distributions. repeats averages the timing.
func RunTEEOverhead(scale Scale, repeats int, seed uint64) (*TEEOverheadResult, error) {
	if repeats < 1 {
		repeats = 1
	}
	spec := dataset.ECG()
	if scale.TrainSize > 0 {
		spec = spec.WithSizes(scale.TrainSize, max(scale.TestSize, 1))
	}
	root := rng.New(seed)
	train, _, err := dataset.Generate(spec, root.Split(1))
	if err != nil {
		return nil, err
	}
	part, err := partition.Dirichlet(train, scale.Parties, 0.3, root.Split(2))
	if err != nil {
		return nil, err
	}
	lds := partition.NormalizedLabelDistributions(train, part)
	maxK := core.DefaultMaxK(scale.Parties)
	const kmRepeats = 20 // the paper's T

	res := &TEEOverheadResult{Parties: scale.Parties}

	// Plain clustering outside any enclave.
	start := time.Now()
	var plainClusters [][]int
	for i := 0; i < repeats; i++ {
		plainClusters, err = core.ClusterLabelDistributions(lds, maxK, kmRepeats, rng.New(seed))
		if err != nil {
			return nil, err
		}
	}
	res.Plain = time.Since(start) / time.Duration(repeats)
	res.PlainK = len(plainClusters)

	// TEE path: boot, attest every party, submit encrypted, cluster inside.
	code := tee.ClusteringCode{Version: tee.CodeVersion, MaxK: maxK, Repeats: kmRepeats}
	hwPub, hwPriv, err := tee.GenerateHardwareKey()
	if err != nil {
		return nil, err
	}
	attest, err := tee.NewAttestationServer(hwPub, code.Measure())
	if err != nil {
		return nil, err
	}

	var enclaveK int
	var clusterTime, protoTime time.Duration
	for i := 0; i < repeats; i++ {
		enclave, err := tee.NewEnclave(code, hwPriv)
		if err != nil {
			return nil, err
		}
		protoStart := time.Now()
		if err := tee.SubmitAll(enclave, attest, lds); err != nil {
			return nil, err
		}
		protoTime += time.Since(protoStart)
		clusterStart := time.Now()
		if err := enclave.Cluster(seed); err != nil {
			return nil, err
		}
		clusterTime += time.Since(clusterStart)
		enclaveK, err = enclave.NumClusters()
		if err != nil {
			return nil, err
		}
		enclave.Wipe()
	}
	res.InEnclave = clusterTime / time.Duration(repeats)
	res.Protocol = protoTime / time.Duration(repeats)
	res.EnclaveK = enclaveK
	if res.Plain > 0 {
		res.OverheadPct = 100 * float64(res.InEnclave-res.Plain) / float64(res.Plain)
	}
	return res, nil
}

// String renders what of the measurement is a function of (scale, seed): the
// fleet and the cluster counts both paths arrive at.
func (r *TEEOverheadResult) String() string {
	return fmt.Sprintf("TEE clustering overhead (%d parties): k=%d plain, k=%d in-enclave; timings on the progress line",
		r.Parties, r.PlainK, r.EnclaveK)
}

// Timings renders the wall-clock half in the paper's style.
func (r *TEEOverheadResult) Timings() string {
	return fmt.Sprintf("plain=%v in-enclave=%v overhead=%.1f%% (one-time attestation+submission protocol: %v)",
		r.Plain, r.InEnclave, r.OverheadPct, r.Protocol)
}

// teeEntry is the registry's §5.1 experiment, averaging five timing repeats.
var teeEntry = Experiment{Name: "tee", Banner: "tee overhead", run: func(w io.Writer, s *session) error {
	res, err := RunTEEOverhead(s.Scale, 5, s.Seed)
	if err != nil {
		return err
	}
	if s.Progress != nil {
		s.Progress(res.Timings())
	}
	fmt.Fprintln(w, res)
	return nil
}}
