package model

import (
	"testing"

	"flips/internal/rng"
	"flips/internal/tensor"
)

// The zero-allocation contract of the training hot path (ISSUE 3): one SGD
// step — fused loss+gradient, FedProx term, clipping, parameter update — must
// not touch the heap at steady state. These tests pin that with
// testing.AllocsPerRun so any regression (a lost scratch buffer, an
// interface box, a per-batch gather) fails loudly rather than shifting
// benchmark numbers quietly.

func steadyStateModels(t *testing.T) map[string]Model {
	t.Helper()
	r := rng.New(5)
	lr := NewLogReg(16, 5)
	p := lr.Params()
	for i := range p {
		p[i] = 0.2 * r.NormFloat64()
	}
	lr.SetParams(p)
	return map[string]Model{
		"logreg": lr,
		"mlp":    NewMLP(16, 12, 5, r.Split(1)),
	}
}

// TestSGDStepZeroAllocs measures exactly one steady-state SGD step: the
// fused LossGradient pass plus the in-place parameter update.
func TestSGDStepZeroAllocs(t *testing.T) {
	batch := randomBatch(rng.New(9), 24, 16, 5)
	for name, m := range steadyStateModels(t) {
		m := m
		t.Run(name, func(t *testing.T) {
			fm, ok := m.(flatModel)
			if !ok {
				t.Fatalf("%T does not expose a flat parameter backing", m)
			}
			params := fm.paramsRef()
			grad := tensor.NewVec(m.NumParams())
			global := m.Params()
			allocs := testing.AllocsPerRun(50, func() {
				loss := m.LossGradient(batch, grad)
				_ = loss
				for i := range grad {
					grad[i] += 0.01 * (params[i] - global[i]) // FedProx term
				}
				if norm := grad.Norm2(); norm > 1e6 {
					grad.ScaleInPlace(1e6 / norm)
				}
				params.Axpy(-0.01, grad)
			})
			if allocs != 0 {
				t.Fatalf("steady-state SGD step allocated %v times, want 0", allocs)
			}
		})
	}
}

// TestTrainLocalStepsAddNoAllocs pins the full local-training loop from a
// fresh scratch: extra epochs multiply the step count but must not change the
// call's allocation count, i.e. every per-step allocation is gone and only
// the fixed per-call setup (gradient buffer, permutation, result clone)
// remains.
func TestTrainLocalStepsAddNoAllocs(t *testing.T) {
	data := randomBatch(rng.New(10), 96, 16, 5)
	for name, m := range steadyStateModels(t) {
		m := m
		t.Run(name, func(t *testing.T) {
			measure := func(epochs int) float64 {
				cfg := SGDConfig{LearningRate: 0.01, BatchSize: 16, LocalEpochs: epochs}
				return testing.AllocsPerRun(20, func() {
					TrainLocalScratch(m, data, cfg, nil, rng.New(77), &TrainScratch{})
				})
			}
			one, eight := measure(1), measure(8)
			if eight > one {
				t.Fatalf("8-epoch TrainLocalScratch allocated %v times vs %v for 1 epoch; steps are leaking allocations", eight, one)
			}
		})
	}
}

// TestTrainLocalScratchReuse pins the per-worker scratch contract (ISSUE 4):
// with a warm TrainScratch, TrainLocalScratch's only remaining allocation is
// the result-parameter clone — the gradient buffer, shuffle order and
// permuted sample walk all come from the scratch.
func TestTrainLocalScratchReuse(t *testing.T) {
	data := randomBatch(rng.New(10), 96, 16, 5)
	for name, m := range steadyStateModels(t) {
		m := m
		t.Run(name, func(t *testing.T) {
			cfg := SGDConfig{LearningRate: 0.01, BatchSize: 16, LocalEpochs: 2}
			var scratch TrainScratch
			TrainLocalScratch(m, data, cfg, nil, rng.New(77), &scratch) // warm the buffers
			allocs := testing.AllocsPerRun(20, func() {
				TrainLocalScratch(m, data, cfg, nil, rng.New(77), &scratch)
			})
			// One tensor.Vec clone for LocalResult.Params (header + backing).
			if allocs > 2 {
				t.Fatalf("warm-scratch TrainLocalScratch allocated %v times, want <= 2 (result clone only)", allocs)
			}
		})
	}
}

// TestTrainLocalScratchMatchesTrainLocal pins bit-equivalence: an oversized
// scratch must reproduce a fresh one exactly (same RNG consumption, same
// float order).
func TestTrainLocalScratchMatchesTrainLocal(t *testing.T) {
	data := randomBatch(rng.New(11), 64, 16, 5)
	for name, m := range steadyStateModels(t) {
		m := m
		t.Run(name, func(t *testing.T) {
			cfg := SGDConfig{LearningRate: 0.01, BatchSize: 16, LocalEpochs: 2}
			start := m.Params()
			a := TrainLocalScratch(m, data, cfg, nil, rng.New(7), &TrainScratch{})
			m.SetParams(start)
			var scratch TrainScratch
			scratch.ensure(m.NumParams()+3, len(data)+5) // oversized scratch must not matter
			b := TrainLocalScratch(m, data, cfg, nil, rng.New(7), &scratch)
			if a.MeanLoss != b.MeanLoss || a.SqLossMean != b.SqLossMean || a.Steps != b.Steps {
				t.Fatalf("scalar results diverge: %+v vs %+v", a, b)
			}
			for i := range a.Params {
				if a.Params[i] != b.Params[i] {
					t.Fatalf("param %d: %v vs %v", i, a.Params[i], b.Params[i])
				}
			}
		})
	}
}

// TestPredictZeroAllocs pins the evaluation path: PredictBlock reuses the
// model's block scratch, allocated by its first call, so an evaluation costs
// its two count slices and then nothing per sample — full blocks and a tail.
func TestPredictZeroAllocs(t *testing.T) {
	batch := randomBatch(rng.New(12), 11, 16, 5)
	for name, m := range steadyStateModels(t) {
		m := m
		t.Run(name, func(t *testing.T) {
			m.PredictBlock(batch[:1])
			allocs := testing.AllocsPerRun(50, func() {
				for b := batch; len(b) > 0; b = b[min(BlockSize, len(b)):] {
					m.PredictBlock(b[:min(BlockSize, len(b))])
				}
			})
			if allocs != 0 {
				t.Fatalf("PredictBlock allocated %v times per 11 samples, want 0", allocs)
			}
		})
	}
}
