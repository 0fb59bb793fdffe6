package rng

import "testing"

// TestSampleSparseMatchesDense pins the fleet-scale sampling contract: the
// sparse virtual Fisher-Yates must consume the identical RNG stream and
// return the identical indices as the dense path, for any (n, k), so the
// threshold switch in SampleWithoutReplacement can never move a trajectory.
func TestSampleSparseMatchesDense(t *testing.T) {
	t.Parallel()
	cases := []struct{ n, k int }{
		{1, 1}, {10, 10}, {100, 7}, {1024, 64}, {1025, 0},
		{5000, 1}, {5000, 128}, {100000, 200},
	}
	for _, tc := range cases {
		a, b := New(uint64(tc.n)*31+uint64(tc.k)), New(uint64(tc.n)*31+uint64(tc.k))
		dense := a.sampleDense(tc.n, tc.k)
		sparse := b.sampleSparse(tc.n, tc.k)
		if len(dense) != len(sparse) {
			t.Fatalf("n=%d k=%d: lengths %d vs %d", tc.n, tc.k, len(dense), len(sparse))
		}
		for i := range dense {
			if dense[i] != sparse[i] {
				t.Fatalf("n=%d k=%d: index %d diverges: dense %d sparse %d", tc.n, tc.k, i, dense[i], sparse[i])
			}
		}
		// The two sources must also end in the same state.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d k=%d: RNG streams diverged after sampling", tc.n, tc.k)
		}
	}
}

// TestSampleAcrossTheSparseThreshold: SampleWithoutReplacement on either
// side of the 1,024 threshold, and sampleSparse below it, give sampleDense's
// indices from the same Intn draws, call after call on one source — each
// call reuses the pooled table a larger or smaller call left behind.
func TestSampleAcrossTheSparseThreshold(t *testing.T) {
	t.Parallel()
	a, b, c := New(41), New(41), New(41)
	for call := 0; call < 400; call++ {
		n := sparseSampleThreshold - 8 + call%17
		k := []int{0, 1, 2, 31, 32, 33, 511, n / 2, n - 1, n}[call%10]
		if call%37 == 0 {
			n = 20000 + call
		}
		dense := a.sampleDense(n, k)
		sampled := b.SampleWithoutReplacement(n, k)
		sparse := c.sampleSparse(n, k)
		for i := range dense {
			if sampled[i] != dense[i] || sparse[i] != dense[i] {
				t.Fatalf("call %d (n=%d k=%d): index %d: dense %d, SampleWithoutReplacement %d, sparse %d", call, n, k, i, dense[i], sampled[i], sparse[i])
			}
		}
		if len(sampled) != k || len(sparse) != k {
			t.Fatalf("call %d (n=%d k=%d): lengths %d, %d", call, n, k, len(sampled), len(sparse))
		}
	}
	if x, y, z := a.Uint64(), b.Uint64(), c.Uint64(); x != y || x != z {
		t.Fatal("RNG streams diverged")
	}
}

// TestSampleWithoutReplacementValidAtScale sanity-checks distinctness and
// range on the sparse path.
func TestSampleWithoutReplacementValidAtScale(t *testing.T) {
	t.Parallel()
	r := New(7)
	const n, k = 1 << 20, 512
	out := r.SampleWithoutReplacement(n, k)
	if len(out) != k {
		t.Fatalf("got %d indices", len(out))
	}
	seen := make(map[int]bool, k)
	for _, v := range out {
		if v < 0 || v >= n {
			t.Fatalf("index %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
	}
}
