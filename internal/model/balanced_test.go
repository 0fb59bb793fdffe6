package model_test

import (
	"math"
	"testing"

	"flips/internal/dataset"
	"flips/internal/metrics"
	"flips/internal/model"
	"flips/internal/tensor"
)

// Balanced accuracy (paper §4.4) is computed from the class counts
// model.ClassCounts tallies, by metrics.BalancedAccuracyFromCounts — the
// path every evaluation takes.

func TestBalancedAccuracyNeutralizesImbalance(t *testing.T) {
	t.Parallel()
	// A constant classifier predicting the majority class: plain accuracy is
	// high on an imbalanced set, balanced accuracy is 1/numClasses... here
	// exactly the recall structure: 100% on class 0, 0% elsewhere.
	m := model.NewLogReg(2, 4)
	p := m.Params()
	p[len(p)-4] = 100 // huge bias for class 0
	m.SetParams(p)
	samples := make([]dataset.Sample, 0, 100)
	for i := 0; i < 97; i++ {
		samples = append(samples, dataset.Sample{X: tensor.Vec{0, 0}, Y: 0})
	}
	for y := 1; y < 4; y++ {
		samples = append(samples, dataset.Sample{X: tensor.Vec{0, 0}, Y: y})
	}
	correct, total := model.ClassCounts(m, samples, 4)
	hits := 0
	for _, c := range correct {
		hits += c
	}
	if acc := float64(hits) / float64(len(samples)); acc < 0.96 {
		t.Fatalf("plain accuracy %v", acc)
	}
	if bacc := metrics.BalancedAccuracyFromCounts(correct, total); math.Abs(bacc-0.25) > 1e-9 {
		t.Fatalf("balanced accuracy %v, want 0.25", bacc)
	}
}

func TestBalancedAccuracySkipsAbsentLabels(t *testing.T) {
	t.Parallel()
	m := model.NewLogReg(2, 5)
	samples := []dataset.Sample{{X: tensor.Vec{0, 0}, Y: 0}}
	// Zero-init logreg ties all logits; ArgMax picks class 0 -> recall 1.
	if bacc := metrics.BalancedAccuracyFromCounts(model.ClassCounts(m, samples, 5)); bacc != 1 {
		t.Fatalf("balanced accuracy %v with single present label", bacc)
	}
}
