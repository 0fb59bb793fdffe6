package model

import (
	"fmt"
	"testing"

	"flips/internal/rng"
	"flips/internal/tensor"
)

// Micro-benchmarks for the training hot path. BenchmarkLossGradient measures
// one fused loss+gradient evaluation on a 32-sample minibatch (the per-step
// kernel TrainLocal runs); BenchmarkTrainLocal measures a full local round
// (3 epochs over 512 samples). Allocation counts here are the repo's perf
// trajectory: BENCH_3.json snapshots them and CI diffs allocs/op against
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

func BenchmarkLossGradient(b *testing.B) {
	batch := randomBatch(rng.New(11), 32, benchDim, benchClasses)
	for name, m := range benchModels(b) {
		b.Run(name, func(b *testing.B) {
			grad := tensor.NewVec(m.NumParams())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.LossGradient(batch, grad)
			}
		})
	}
}

func BenchmarkTrainLocal(b *testing.B) {
	data := randomBatch(rng.New(13), 512, benchDim, benchClasses)
	cfg := SGDConfig{LearningRate: 0.05, BatchSize: 32, LocalEpochs: 3}
	for name, m := range benchModels(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				TrainLocal(m, data, cfg, nil, rng.New(uint64(i)+1))
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
