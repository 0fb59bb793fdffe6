package model

import (
	"fmt"
	"testing"

	"flips/internal/dataset"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// Micro-benchmarks for the training hot path. BenchmarkLossGradient measures
// one fused loss+gradient evaluation (the per-step kernel TrainLocal runs) —
// on a 32-sample minibatch at 64→32→8, and at the two shapes the benchmark's
// jobs train, batch 16: FEMNIST's MLP (36→32→10) and the ECG logistic
// regression (32→5). BenchmarkTrainLocal measures a full local round (3 epochs
// over 512 samples). Allocation counts here are the repo's perf trajectory:
// BENCH_3.json snapshots them and CI diffs allocs/op against
// .github/bench-allocs-baseline.txt.

const (
	benchDim     = 64
	benchClasses = 8
	benchHidden  = 32
)

func benchModels(b *testing.B) map[string]Model {
	b.Helper()
	r := rng.New(7)
	lr := NewLogReg(benchDim, benchClasses)
	p := lr.Params()
	for i := range p {
		p[i] = 0.1 * r.NormFloat64()
	}
	lr.SetParams(p)
	return map[string]Model{
		"logreg": lr,
		"mlp":    NewMLP(benchDim, benchHidden, benchClasses, r.Split(1)),
	}
}

// lossGradientCell is one BenchmarkLossGradient cell: a model off its initial
// point and the minibatch it is evaluated on.
type lossGradientCell struct {
	m     Model
	batch []dataset.Sample
}

func lossGradientCells(b *testing.B) map[string]lossGradientCell {
	cells := map[string]lossGradientCell{}
	for name, m := range benchModels(b) {
		cells[name] = lossGradientCell{m, randomBatch(rng.New(11), 32, benchDim, benchClasses)}
	}
	r := rng.New(19)
	ecg := NewLogReg(32, 5)
	for i, p := 0, ecg.paramsRef(); i < len(p); i++ {
		p[i] = 0.1 * r.NormFloat64()
	}
	cells["logreg-ecg"] = lossGradientCell{ecg, randomBatch(r, 16, 32, 5)}
	cells["mlp-femnist"] = lossGradientCell{NewMLP(36, 32, 10, r.Split(1)), randomBatch(r, 16, 36, 10)}
	return cells
}

func BenchmarkLossGradient(b *testing.B) {
	for name, c := range lossGradientCells(b) {
		b.Run(name, func(b *testing.B) {
			grad := tensor.NewVec(c.m.NumParams())
			c.m.LossGradient(c.batch, grad) // the block scratch is allocated by the first call
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = c.m.LossGradient(c.batch, grad)
			}
		})
	}
}

// BenchmarkLossGradientReference times the per-sample reference on the
// FEMNIST cell. CI gates BenchmarkLossGradient/mlp-femnist at a fraction of
// it: absolute times on a shared runner are noise, the ratio of two cells of
// one run is not.
func BenchmarkLossGradientReference(b *testing.B) {
	c := lossGradientCells(b)["mlp-femnist"]
	b.Run("mlp-femnist", func(b *testing.B) {
		grad := tensor.NewVec(c.m.NumParams())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = referenceLossGradient(c.m, c.batch, grad)
		}
	})
}

// BenchmarkClonePredict is what metrics.ShardedClassCounts pays per shard per
// evaluation before its first prediction: a clone carries the parameters, and
// its first PredictBlock allocates the MLP's hidden block scratch (a LogReg
// predicts with none), never LossGradient's own. Its one-sample block runs
// the scorer's four lanes on copies of that sample.
func BenchmarkClonePredict(b *testing.B) {
	block := randomBatch(rng.New(23), 1, benchDim, benchClasses)
	for name, m := range benchModels(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = m.Clone().PredictBlock(block)
			}
		})
	}
}

// classCountsCell is one BenchmarkClassCounts cell: a model off its initial
// point and the 1,000-sample test set it is scored on.
type classCountsCell struct {
	m       Model
	test    []dataset.Sample
	classes int
}

// classCountsCells are the evaluations the benchmark's jobs run after every
// evaluated round: the ECG logistic regression (32→5) and FEMNIST's MLP
// (36→32→10).
func classCountsCells() map[string]classCountsCell {
	r := rng.New(29)
	ecg := NewLogReg(32, 5)
	for i, p := 0, ecg.paramsRef(); i < len(p); i++ {
		p[i] = 0.1 * r.NormFloat64()
	}
	return map[string]classCountsCell{
		"logreg-ecg":  {ecg, randomBatch(r, 1000, 32, 5), 5},
		"mlp-femnist": {NewMLP(36, 32, 10, r.Split(1)), randomBatch(r, 1000, 36, 10), 10},
	}
}

// BenchmarkClassCounts times one evaluation, four test samples per pass
// through each forward product. It allocates the two count slices.
func BenchmarkClassCounts(b *testing.B) {
	for name, c := range classCountsCells() {
		b.Run(name, func(b *testing.B) {
			ClassCounts(c.m, c.test[:1], c.classes) // the block scratch is allocated by the first call
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ClassCounts(c.m, c.test, c.classes)
			}
		})
	}
}

// BenchmarkClassCountsReference times the per-sample reference on the same
// cells. CI gates each BenchmarkClassCounts cell at a fraction of it.
func BenchmarkClassCountsReference(b *testing.B) {
	for name, c := range classCountsCells() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				referenceClassCounts(c.m, c.test, c.classes)
			}
		})
	}
}

func BenchmarkTrainLocal(b *testing.B) {
	data := randomBatch(rng.New(13), 512, benchDim, benchClasses)
	cfg := SGDConfig{LearningRate: 0.05, BatchSize: 32, LocalEpochs: 3}
	for name, m := range benchModels(b) {
		b.Run(name, func(b *testing.B) {
			m.LossGradient(data[:1], tensor.NewVec(m.NumParams())) // the block scratch is allocated by the first call
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				TrainLocalScratch(m, data, cfg, nil, rng.New(uint64(i)+1), &TrainScratch{})
			}
		})
	}
}

// BenchmarkMulVecInto measures the forward-pass kernel at the shapes the
// benchmark's jobs run it at: the ECG logistic regression (5×32), the
// FEMNIST one (10×32) and an MLP hidden layer (32×36).
func BenchmarkMulVecInto(b *testing.B) {
	for _, shape := range [][2]int{{5, 32}, {10, 32}, {32, 36}} {
		rows, cols := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", rows, cols), func(b *testing.B) {
			r := rng.New(17)
			m := tensor.NewMat(rows, cols)
			for i := range m.Data {
				m.Data[i] = r.NormFloat64()
			}
			x, dst := tensor.NewVec(cols), tensor.NewVec(rows)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulVecInto(dst, x)
			}
		})
	}
}
