package model

import (
	"flips/internal/dataset"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// SGDConfig configures local (on-party) minibatch SGD.
type SGDConfig struct {
	// LearningRate is the step size η.
	LearningRate float64
	// BatchSize is the minibatch size (clamped to the dataset size).
	BatchSize int
	// LocalEpochs is the number of passes over the party's data per round
	// (the τ local iterations of Algorithm 1).
	LocalEpochs int
	// ProxMu is FedProx's proximal penalty µ: the local objective gains
	// (µ/2)·||x − m||², pulling the local model toward the round's global
	// model m. Zero disables the term (plain FedAvg-style local SGD).
	ProxMu float64
}

// WithDefaults returns a copy of c with zero fields replaced by the package
// defaults (lr=0.05, batch=32, one local epoch).
func (c SGDConfig) WithDefaults() SGDConfig {
	if c.LearningRate <= 0 {
		c.LearningRate = 0.05
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LocalEpochs <= 0 {
		c.LocalEpochs = 1
	}
	return c
}

// LocalResult reports the outcome of one party's local training round.
type LocalResult struct {
	// Params is the post-training flat parameter vector x^(r,τ).
	Params tensor.Vec
	// NumSamples is the party's dataset size n_i (FedAvg aggregation weight).
	NumSamples int
	// MeanLoss is the mean per-minibatch training loss observed across the
	// round — Oort's statistical-utility signal.
	MeanLoss float64
	// SqLossMean is the mean squared per-minibatch loss, matching Oort's
	// sqrt(1/|B| Σ loss²) utility when square-rooted.
	SqLossMean float64
	// Steps is the number of SGD steps taken.
	Steps int
}

// TrainScratch holds TrainLocal's reusable per-call buffers (gradient,
// shuffle order, pre-permuted sample walk). The zero value is ready to use;
// buffers grow to the largest (param-dim, dataset-size) seen and are then
// reused, so a long-lived caller — the FL engine keeps one per pool worker
// next to its model replica — pays no per-call setup allocations. A scratch
// must not be shared between concurrent TrainLocalScratch calls.
type TrainScratch struct {
	grad  tensor.Vec
	order []int
	perm  []dataset.Sample
}

func (s *TrainScratch) ensure(paramDim, n int) {
	if cap(s.grad) < paramDim {
		s.grad = tensor.NewVec(paramDim)
	}
	s.grad = s.grad[:paramDim]
	if cap(s.order) < n {
		s.order = make([]int, n)
	}
	s.order = s.order[:n]
	if cap(s.perm) < n {
		s.perm = make([]dataset.Sample, n)
	}
	s.perm = s.perm[:n]
}

// TrainLocalScratch runs cfg.LocalEpochs epochs of minibatch SGD on data
// starting from the model's current parameters and returns the resulting
// parameters: the training loop of TrainLocalInPlace, then the one clone
// that makes the result the caller's to keep. globalParams (may be nil when
// ProxMu is 0) anchors the FedProx proximal term. The model's parameters are
// mutated in place; callers pass a clone (or per-worker replica) seeded with
// the round's global model. scratch holds the reusable buffers.
func TrainLocalScratch(m Model, data []dataset.Sample, cfg SGDConfig, globalParams tensor.Vec, r *rng.Source, scratch *TrainScratch) LocalResult {
	res := TrainLocalInPlace(m, data, cfg, globalParams, r, scratch)
	res.Params = res.Params.Clone()
	return res
}

// TrainLocalInPlace is TrainLocalScratch without the result clone: for the
// flat-backed built-in models res.Params is the model's live parameter
// vector, valid only until m is next trained or overwritten. It serves a
// caller that consumes the vector on the spot — a shard worker serialises it
// into the reply frame, the FL engine copies it into a recycled update
// vector — and would otherwise copy it twice.
//
// The loop is the simulator's hottest kernel and is zero-allocation at
// steady state: all per-call buffers (gradient, permutation) come from the
// scratch, each step runs one fused LossGradient forward/backward pass, and
// for models backed by a flat parameter vector the SGD step is applied
// directly to that backing — no per-step Params/SetParams copies. Every
// float operation happens in the same order as the historical
// Loss+Gradient/SetParams formulation, so results are bit-identical (the
// golden suite in internal/fl/testdata pins this); buffer reuse is safe
// because LossGradient zeroes its output and the shuffle order is reset to
// the identity on every call.
func TrainLocalInPlace(m Model, data []dataset.Sample, cfg SGDConfig, globalParams tensor.Vec, r *rng.Source, scratch *TrainScratch) LocalResult {
	cfg = cfg.WithDefaults()
	n := len(data)
	res := LocalResult{NumSamples: n}

	// Flat-backed models train directly on their live parameter vector;
	// other implementations fall back to the copy-in/copy-out protocol.
	var params tensor.Vec
	fm, direct := m.(flatModel)
	if direct {
		params = fm.paramsRef()
	} else {
		params = m.Params()
	}
	res.Params = params
	if n == 0 {
		return res
	}
	batch := cfg.BatchSize
	if batch > n {
		batch = n
	}
	scratch.ensure(len(params), n)
	grad := scratch.grad
	order := scratch.order
	for i := range order {
		order[i] = i
	}
	swap := func(i, j int) { order[i], order[j] = order[j], order[i] }
	// Pre-permuted sample walk: one gather per epoch instead of one per
	// minibatch; batches are then plain subslices of perm.
	perm := scratch.perm

	var lossSum, sqLossSum float64
	for epoch := 0; epoch < cfg.LocalEpochs; epoch++ {
		r.Shuffle(n, swap)
		for i, idx := range order {
			perm[i] = data[idx]
		}
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}

			loss := m.LossGradient(perm[start:end], grad)
			lossSum += loss
			// float64(…) rounds a product before its add here and below, so
			// no GOARCH fuses the two (DESIGN.md, "Float-order preservation").
			sqLossSum += float64(loss * loss)
			res.Steps++

			if cfg.ProxMu > 0 && globalParams != nil {
				// ∇[(µ/2)||x−m||²] = µ(x−m)
				for i := range grad {
					grad[i] += float64(cfg.ProxMu * (params[i] - globalParams[i]))
				}
			}
			params.Axpy(-cfg.LearningRate, grad)
			if !direct {
				m.SetParams(params)
			}
		}
	}

	if res.Steps > 0 {
		res.MeanLoss = lossSum / float64(res.Steps)
		res.SqLossMean = sqLossSum / float64(res.Steps)
	}
	return res
}

// ClassCounts tallies per-label prediction outcomes: correct[c] is the count
// of label-c samples predicted correctly, total[c] the count of label-c
// samples. Because the tallies are integers, counts taken over disjoint
// shards of a sample set merge by addition into exactly the counts of the
// whole set — the property metrics.ShardedClassCounts relies on. The samples
// are scored BlockSize at a time through PredictBlock, which leaves the
// parameters untouched but writes the model's scratch buffers, so concurrent
// callers must each run on their own Clone.
func ClassCounts(m Model, samples []dataset.Sample, numClasses int) (correct, total []int) {
	correct = make([]int, numClasses)
	total = make([]int, numClasses)
	for len(samples) > 0 {
		block := samples[:min(BlockSize, len(samples))]
		classes, _ := m.PredictBlock(block)
		for k := range block {
			y := block[k].Y
			total[y]++
			if classes[k] == y {
				correct[y]++
			}
		}
		samples = samples[len(block):]
	}
	return correct, total
}
