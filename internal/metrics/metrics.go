// Package metrics provides the evaluation statistics the FLIPS harness
// reports beyond raw balanced accuracy: summary statistics over repeated
// measurements, the balanced accuracy and per-label recall (Figure 13) the FL
// engine's evaluator derives from per-class counts on the global test set,
// and a sharded parallel counting path.
package metrics

import (
	"math"

	"flips/internal/dataset"
	"flips/internal/model"
	"flips/internal/parallel"
)

// ShardedClassCounts evaluates m over samples split into contiguous shards,
// one per pool worker, and merges the per-shard integer class counts. The
// merge is integer addition, so the result is bit-identical to
// model.ClassCounts over the whole set at every pool width. Models keep
// reusable block scratch, so each concurrent shard evaluates its own Clone of
// m (a parameter copy, whose first PredictBlock allocates its scratch). No
// product path calls it: fl.Run's evaluator scores each snapshot with one
// model.ClassCounts on one replica, overlapped with the next cycles
// (DESIGN.md, "One aggregation loop"). The benchmark harness's evaluation
// probe and the engine's inline-evaluation reference test do.
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
// present in the counts.
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
