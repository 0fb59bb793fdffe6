package partition

import (
	"math"
	"testing"

	"flips/internal/dataset"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// fuzzDataset synthesizes a labeled dataset whose label assignment is a pure
// function of seed, so every fuzz execution is reproducible from its corpus
// entry. Features are irrelevant to partitioning and stay zero-width.
func fuzzDataset(n, classes int, seed uint64) *dataset.Dataset {
	labels := make([]string, classes)
	for i := range labels {
		labels[i] = string(rune('a' + i%26))
	}
	ds := &dataset.Dataset{LabelNames: labels}
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		ds.Samples = append(ds.Samples, dataset.Sample{X: tensor.Vec{0}, Y: r.Intn(classes)})
	}
	return ds
}

// FuzzDirichletPartition asserts the partitioner's invariants over arbitrary
// (seed, parties, alpha, size, classes) inputs: valid inputs must yield a
// partition that assigns every sample exactly once with no empty party, and
// invalid inputs must error rather than panic. Valid partitions must also equal
// the reference implementation's (partition_test.go).
func FuzzDirichletPartition(f *testing.F) {
	f.Add(uint64(1), 5, 0.3, 200, 5)
	f.Add(uint64(7), 1, 1.0, 50, 2)
	f.Add(uint64(42), 32, 0.05, 400, 7)
	f.Add(uint64(3), 10, 10.0, 10, 1)
	f.Add(uint64(9), 0, 0.3, 100, 3)   // invalid: no parties
	f.Add(uint64(9), 8, -1.0, 100, 3)  // invalid: negative alpha
	f.Add(uint64(9), 200, 0.3, 100, 3) // invalid: more parties than samples

	f.Fuzz(func(t *testing.T, seed uint64, parties int, alpha float64, n, classes int) {
		// Bound the workload, not the validity: the partitioner itself must
		// reject bad party counts and alphas without panicking.
		if n < 0 || n > 2000 || parties > 256 || classes < 1 || classes > 26 {
			t.Skip()
		}
		ds := fuzzDataset(n, classes, seed)
		p, err := Dirichlet(ds, parties, alpha, rng.New(seed))
		if parties <= 0 || alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) || n < parties {
			if err == nil {
				t.Fatalf("invalid input (parties=%d alpha=%v n=%d) accepted", parties, alpha, n)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid input rejected: %v", err)
		}
		if p.NumParties() != parties {
			t.Fatalf("partition has %d parties, want %d", p.NumParties(), parties)
		}
		// Byte-for-byte the partition the quadratic reference loops produce.
		assertSamePartition(t, referenceDirichlet(ds, parties, alpha, rng.New(seed)), p)
		// Every sample index is assigned exactly once.
		seen := make([]bool, n)
		for pi, indices := range p.Parties {
			if len(indices) == 0 {
				t.Fatalf("party %d is empty", pi)
			}
			for _, idx := range indices {
				if idx < 0 || idx >= n {
					t.Fatalf("party %d holds out-of-range index %d", pi, idx)
				}
				if seen[idx] {
					t.Fatalf("sample %d assigned twice", idx)
				}
				seen[idx] = true
			}
		}
		if got := p.TotalSamples(); got != n {
			t.Fatalf("partition covers %d of %d samples", got, n)
		}
		// Label distributions sum back to the dataset's label histogram.
		total := tensor.NewVec(classes)
		for _, indices := range p.Parties {
			ld := labelCounts(ds, indices)
			if int(ld.Sum()) != len(indices) {
				t.Fatalf("label distribution sums to %v for %d samples", ld.Sum(), len(indices))
			}
			for c := range total {
				total[c] += ld[c]
			}
		}
		counts := make([]int, ds.NumClasses())
		for _, s := range ds.Samples {
			counts[s.Y]++
		}
		for c, want := range counts {
			if int(total[c]) != want {
				t.Fatalf("label %d: parties hold %v samples, dataset has %d", c, total[c], want)
			}
		}
	})
}
