package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"flips/internal/dataset"
	"flips/internal/model"
	"flips/internal/parallel"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// constModel predicts a fixed class (test double).
type constModel struct{ class, params int }

func (c *constModel) Clone() model.Model                                { cc := *c; return &cc }
func (c *constModel) NumParams() int                                    { return c.params }
func (c *constModel) Params() tensor.Vec                                { return tensor.NewVec(c.params) }
func (c *constModel) SetParams(tensor.Vec)                              {}
func (c *constModel) LossGradient([]dataset.Sample, tensor.Vec) float64 { return 0 }
func (c *constModel) Predict(tensor.Vec) int                            { return c.class }

func TestSummarize(t *testing.T) {
	t.Parallel()
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary %+v", s)
	}
	// Sample std of 1..4 is sqrt(5/3).
	if math.Abs(s.Std-math.Sqrt(5.0/3)) > 1e-12 {
		t.Fatalf("std %v", s.Std)
	}
	if empty := Summarize(nil); empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
	single := Summarize([]float64{7})
	if single.Std != 0 || single.Mean != 7 {
		t.Fatalf("single summary %+v", single)
	}
}

func TestSummarizeProperties(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		s := Summarize(xs)
		if s.Min > s.Mean || s.Mean > s.Max {
			return false
		}
		return s.Std >= 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// labelModel predicts y = round(x[0]) so shard evaluation has a non-trivial
// mix of hits and misses (test double).
type labelModel struct{ constModel }

func (l *labelModel) Clone() model.Model       { ll := *l; return &ll }
func (l *labelModel) Predict(x tensor.Vec) int { return int(x[0]) }

func shardEvalSamples(n, numClasses int, seed uint64) []dataset.Sample {
	r := rng.New(seed)
	out := make([]dataset.Sample, n)
	for i := range out {
		y := r.Intn(numClasses)
		pred := y
		if r.Float64() < 0.4 { // misclassify 40%
			pred = r.Intn(numClasses)
		}
		out[i] = dataset.Sample{X: tensor.Vec{float64(pred)}, Y: y}
	}
	return out
}

// TestShardedClassCountsMatchesSequential is the evaluation half of the
// parallel determinism contract: at every pool width the merged shard counts
// must be bit-identical to a single sequential pass, and the accuracy values
// derived from them must match the model-package reference implementations.
func TestShardedClassCountsMatchesSequential(t *testing.T) {
	t.Parallel()
	const classes = 5
	m := &labelModel{}
	for _, n := range []int{0, 1, 7, 1000} {
		samples := shardEvalSamples(n, classes, uint64(n)+1)
		wantC, wantT := model.ClassCounts(m, samples, classes)
		for _, width := range []int{1, 2, 3, 8, 64} {
			gotC, gotT := ShardedClassCounts(m, samples, classes, parallel.New(width))
			for c := 0; c < classes; c++ {
				if gotC[c] != wantC[c] || gotT[c] != wantT[c] {
					t.Fatalf("n=%d width=%d class %d: counts (%d,%d) want (%d,%d)",
						n, width, c, gotC[c], gotT[c], wantC[c], wantT[c])
				}
			}
			if acc, want := BalancedAccuracyFromCounts(gotC, gotT), model.BalancedAccuracy(m, samples, classes); acc != want {
				t.Fatalf("n=%d width=%d balanced accuracy %v want %v", n, width, acc, want)
			}
		}
	}
}

func TestFromCountsEdgeCases(t *testing.T) {
	t.Parallel()
	if acc := BalancedAccuracyFromCounts(nil, nil); acc != 0 {
		t.Fatalf("empty counts accuracy %v", acc)
	}
	// One absent label: excluded from the mean, NaN in per-label recall.
	correct, total := []int{2, 0, 3}, []int{4, 0, 3}
	if acc := BalancedAccuracyFromCounts(correct, total); math.Abs(acc-0.75) > 1e-15 {
		t.Fatalf("accuracy %v", acc)
	}
	per := PerLabelRecallFromCounts(correct, total)
	if per[0] != 0.5 || !math.IsNaN(per[1]) || per[2] != 1 {
		t.Fatalf("per-label %v", per)
	}
}
