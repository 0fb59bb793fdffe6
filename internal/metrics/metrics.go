// Package metrics provides the evaluation statistics the FLIPS harness
// reports beyond raw balanced accuracy: summary statistics over repeated
// measurements, and the sharded parallel evaluation path (per-class counts,
// hence the per-label recall of Figure 13) the FL engine uses on the global
// test set.
package metrics

import (
	"fmt"
	"math"

	"flips/internal/dataset"
	"flips/internal/model"
	"flips/internal/parallel"
)

// ShardedClassCounts evaluates m over samples split into contiguous shards,
// one per pool worker, and merges the per-shard integer class counts. The
// merge is integer addition, so the result is bit-identical to
// model.ClassCounts over the whole set at every pool width — this is the
// determinism contract of the parallel evaluation path. Models keep reusable
// forward-pass scratch, so each concurrent shard evaluates its own Clone of
// m (a parameter copy; Predict itself then allocates nothing).
func ShardedClassCounts(m model.Model, samples []dataset.Sample, numClasses int, pool *parallel.Pool) (correct, total []int) {
	n := len(samples)
	shards := pool.Width()
	if shards > n {
		shards = n
	}
	if n == 0 || shards <= 1 {
		return model.ClassCounts(m, samples, numClasses)
	}
	type counts struct{ correct, total []int }
	replicas := make([]model.Model, shards)
	for s := range replicas {
		replicas[s] = m.Clone()
	}
	per := parallel.Map(pool, shards, func(s int) counts {
		lo := s * n / shards
		hi := (s + 1) * n / shards
		c, t := model.ClassCounts(replicas[s], samples[lo:hi], numClasses)
		return counts{c, t}
	})
	correct = make([]int, numClasses)
	total = make([]int, numClasses)
	for _, p := range per {
		for c := 0; c < numClasses; c++ {
			correct[c] += p.correct[c]
			total[c] += p.total[c]
		}
	}
	return correct, total
}

// BalancedAccuracyFromCounts computes the paper's §4.4 balanced accuracy
// from class counts: the unweighted mean of per-label recalls over labels
// present in the counts. It matches model.BalancedAccuracy exactly.
func BalancedAccuracyFromCounts(correct, total []int) float64 {
	var sum float64
	present := 0
	for c := range total {
		if total[c] == 0 {
			continue
		}
		sum += float64(correct[c]) / float64(total[c])
		present++
	}
	if present == 0 {
		return 0
	}
	return sum / float64(present)
}

// PerLabelRecallFromCounts computes per-label recall from class counts, NaN
// for labels absent from the counts.
func PerLabelRecallFromCounts(correct, total []int) []float64 {
	out := make([]float64, len(total))
	for c := range out {
		if total[c] == 0 {
			out[c] = math.NaN()
			continue
		}
		out[c] = float64(correct[c]) / float64(total[c])
	}
	return out
}

// Summary holds order statistics over repeated measurements.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
}

// String renders the summary as "mean ± std [min, max] (n)".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f [%.3f, %.3f] (n=%d)", s.Mean, s.Std, s.Min, s.Max, s.N)
}
