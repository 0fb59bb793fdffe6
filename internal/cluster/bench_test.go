package cluster

import (
	"fmt"
	"testing"

	"flips/internal/rng"
	"flips/internal/tensor"
)

// labelHistograms returns n normalized label histograms over five classes,
// each of one to three samples drawn from a skewed label distribution: the
// rows FLIPS clusters for an ECG fleet, where ~2 samples per party allow
// only a few dozen distinct histograms however many parties there are.
func labelHistograms(n int, r *rng.Source) *tensor.Mat {
	weights := []float64{0.55, 0.2, 0.12, 0.08, 0.05}
	points := tensor.NewMat(n, len(weights))
	for i := 0; i < n; i++ {
		row := points.Row(i)
		for s := 1 + r.Intn(3); s > 0; s-- {
			row[r.Categorical(weights)]++
		}
		row.Normalize()
	}
	return points
}

// BenchmarkOptimalK times FLIPS's Davies-Bouldin sweep at the selector's two
// shapes: 2,000 parties sweep k ∈ [2, 500] with 5 restarts each (below the
// fleet-scale threshold, maxK = n/4), 100k parties k ∈ [2, 12] with 2. Both
// fleets hold a few dozen distinct histograms. Measuring every point at every
// k made the small fleet the slow one (~50 s against ~3 s); CI gates the
// per-point ratio of the two cells.
func BenchmarkOptimalK(b *testing.B) {
	for _, c := range []struct{ n, maxK, repeats int }{{2000, 500, 5}, {100000, 12, 2}} {
		points := labelHistograms(c.n, rng.New(5))
		b.Run(fmt.Sprintf("%dk", c.n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				OptimalK(points, c.maxK, c.repeats, rng.New(uint64(i)))
			}
		})
	}
}
