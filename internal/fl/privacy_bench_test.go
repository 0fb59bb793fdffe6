package fl

import (
	"testing"

	"flips/internal/parallel"
	"flips/internal/tensor"
)

// ecgModelDim is the parameter count of the benchmark's masked_sync model:
// logistic regression over the mit-bih-ecg spec (32 features × 5 classes
// plus 5 biases).
const ecgModelDim = 165

// benchMaskWave builds a settled-ready wave on pool: a k-member cohort, all
// enrolled (pairwise seeds + Shamir escrow at the given ShareThreshold, 0
// for the majority default), with survivors of them contributing clipped
// unit-weight deltas of the given dimension.
func benchMaskWave(b *testing.B, pool *parallel.Pool, k, survivors, dim, threshold int) (*privacyState, *maskWave) {
	b.Helper()
	cfg := &Config{Privacy: PrivacyConfig{Mask: true, Clip: 1, ShareThreshold: threshold}, Seed: 42}
	ps := newPrivacyState(cfg, dim, pool)
	cohort := make([]int, k)
	for i := range cohort {
		cohort[i] = i
	}
	w, err := ps.beginWave(1, 0, cohort)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < survivors; i++ {
		delta := tensor.NewVec(dim)
		for c := range delta {
			delta[c] = 1e-3 * float64((i+c)%17)
		}
		clipDeltaInPlace(delta, ps.pc.Clip)
		ps.contribute(w, i, delta, 50)
	}
	return ps, w
}

// BenchmarkMaskedFold measures the steady-state masked accumulation kernel —
// the per-contributor cost of secure aggregation: encode a survivor's
// weighted delta into the uint64 ring and apply its pairwise masks against
// the full cohort. These are the items settleWave spreads over the worker
// pool; the kernel must stay allocation-free (the CI bench-alloc ratchet
// pins it at 0 allocs/op), because it runs once per contributor per wave.
func BenchmarkMaskedFold(b *testing.B) {
	const (
		k   = 16
		dim = 4096
	)
	ps, w := benchMaskWave(b, parallel.New(1), k, k, dim, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci := range w.contribs {
			ps.addMaskedUpload(&ps.workers[0], w, &w.contribs[ci], 0, dim+1)
		}
	}
	coords := float64(dim+1) * float64(k) // encoded coords × survivors per pass
	b.ReportMetric(coords*float64(b.N)/b.Elapsed().Seconds(), "coords/sec")
}

// BenchmarkMaskedSettle measures a full wave settlement at pool width 1:
// recovery of the missing members' keys from the escrow (one Lagrange basis
// per wave, one key rebuild and public-key check per dropout), the masked
// sum with the dropout seeds unmasked in the same pass, and the fixed-point
// decode. The dropout arms price what a deadline miss costs the server per
// wave; masked-sync is the benchmark workload's wave (40-party cohort, 8
// deadline misses, majority threshold, the mit-bih-ecg model). Everything
// but the rebuilt keys (crypto/ecdh allocates 4 objects per key) comes from
// pooled scratch, which the CI ratchet pins.
func BenchmarkMaskedSettle(b *testing.B) {
	for _, tc := range []struct {
		name                         string
		k, survivors, dim, threshold int
	}{
		{name: "full-cohort", k: 16, survivors: 16, dim: 4096, threshold: 2},
		{name: "2-dropouts", k: 16, survivors: 14, dim: 4096, threshold: 2},
		{name: "masked-sync", k: 40, survivors: 32, dim: ecgModelDim},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ps, w := benchMaskWave(b, parallel.New(1), tc.k, tc.survivors, tc.dim, tc.threshold)
			settle := func() {
				w.settled = false
				ps.ndecoded = 0
				res, err := ps.settleWave(w)
				if err != nil {
					b.Fatal(err)
				}
				if res.aborted || res.delta == nil {
					b.Fatal("wave did not settle")
				}
			}
			settle() // grow the pooled scratch: the ratchet runs at -benchtime 1x
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				settle()
			}
		})
	}
}

// BenchmarkMaskedEnroll measures steady-state enrolment at pool width 1: a
// masked_sync-sized cohort whose pairs have all met before (warm seed
// cache), so a wave costs k² cache reads and k Shamir splits into pooled
// wave storage — 0 allocs/op, pinned by the CI ratchet.
func BenchmarkMaskedEnroll(b *testing.B) {
	const k = 40
	ps, w := benchMaskWave(b, parallel.New(1), k, 0, ecgModelDim, 0)
	cohort := append([]int(nil), w.members...)
	ps.freeWave(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := ps.beginWave(uint64(i)+2, 0, cohort)
		if err != nil {
			b.Fatal(err)
		}
		ps.freeWave(w)
	}
}

// BenchmarkEngineMasked measures the fleet-scale engine with the full
// privacy middleware on: the same buffered 10k/100k-party configuration as
// BenchmarkEngineSharded, plus per-wave mask enrollment, masked uint64
// folds and dropout-free settlement. The delta against the plaintext
// BenchmarkEngineSharded numbers is the secure-aggregation overhead line in
// BENCH_8.json.
func BenchmarkEngineMasked(b *testing.B) {
	for _, tc := range []struct {
		name    string
		parties int
	}{
		{name: "10k", parties: 10_000},
		{name: "100k", parties: 100_000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := fleetConfig(b, tc.parties, 64, 8)
			cfg.Optimizer = &FedAvg{ServerLR: 1}
			cfg.Privacy = PrivacyConfig{Mask: true, Clip: 1, ShareThreshold: 2}
			k := cfg.Aggregation.(Buffered).K
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.History) == 0 {
					b.Fatal("no history")
				}
			}
			b.ReportMetric(float64(cfg.Rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
			b.ReportMetric(float64(k*cfg.Rounds)*float64(b.N)/b.Elapsed().Seconds(), "arrivals/sec")
		})
	}
}
