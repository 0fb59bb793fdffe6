package metrics

import (
	"fmt"
	"testing"

	"flips/internal/dataset"
	"flips/internal/model"
	"flips/internal/parallel"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// BenchmarkShardedEval measures the sharded test-set evaluation path the
// benchmark harness's evaluation probe runs: ShardedClassCounts over a
// 4096-sample test set at pool width 1 (sequential) and 4.
func BenchmarkShardedEval(b *testing.B) {
	const (
		dim     = 64
		classes = 8
		n       = 4096
	)
	r := rng.New(3)
	samples := make([]dataset.Sample, n)
	for i := range samples {
		x := tensor.NewVec(dim)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		samples[i] = dataset.Sample{X: x, Y: r.Intn(classes)}
	}
	m := model.NewMLP(dim, 32, classes, r.Split(1))
	for _, width := range []int{1, 4} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			pool := parallel.New(width)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ShardedClassCounts(m, samples, classes, pool)
			}
		})
	}
}
