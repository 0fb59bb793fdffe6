// Package model provides the learners the FL simulator trains: multinomial
// logistic regression and a one-hidden-layer MLP, both exposing their
// parameters as a single flat vector so that FL aggregation and server
// optimizers (FedAvg/FedYogi/FedAdam/...) are model-agnostic.
//
// The paper trains CNNs (1-D CNN, LeNet-5, DenseNet-121) on raw signals and
// images; here the datasets are synthetic feature vectors (see package
// dataset), so convex/shallow models exhibit the same selection-dependent
// convergence behaviour at a fraction of the cost. DESIGN.md records this
// substitution.
package model

import (
	"math"

	"flips/internal/dataset"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// Model is a trainable classifier with flat-vector parameter access.
type Model interface {
	// Clone returns an independent deep copy.
	Clone() Model
	// NumParams returns the parameter count.
	NumParams() int
	// Params returns a copy of the flattened parameters.
	Params() tensor.Vec
	// SetParams overwrites the parameters from a flat vector of length
	// NumParams.
	SetParams(p tensor.Vec)
	// LossGradient returns the mean cross-entropy over the batch and writes
	// its gradient into out (length NumParams, zeroed first; 0 and a zero
	// gradient for an empty batch). The float order is part of the contract,
	// since every golden and history digest rides on it: the loss sums the
	// per-sample losses in batch order, and each element of out accumulates
	// its per-sample products in batch order starting from +0. How many
	// samples an implementation takes per pass over out is its own business.
	LossGradient(batch []dataset.Sample, out tensor.Vec) float64
	// PredictBlock returns the argmax class of each sample's features in
	// block, which holds at most BlockSize samples, and its margin: the
	// winning logit less the runner-up (the largest other logit by the same
	// rule), or -Inf where that is NaN or ±Inf — with one class, or a NaN or
	// infinite logit among the two. The entries past len(block) are zero.
	// Each class is the one a single-sample forward pass picks — every logit
	// is Row(i).Dot(x) + b[i], ties go to the lower class and a NaN never
	// displaces an earlier logit — however many samples an implementation
	// takes per pass. It leaves the parameters untouched but may write the
	// model's scratch.
	PredictBlock(block []dataset.Sample) (classes [BlockSize]int, margins [BlockSize]float64)
}

// flatModel is the optional capability of models that store their parameters
// in a single flat backing vector: paramsRef exposes that live vector so
// TrainLocal can apply SGD steps directly to it, with no per-step
// Params/SetParams round-trips. Mutating the returned vector mutates the
// model. Both built-in models implement it.
type flatModel interface {
	paramsRef() tensor.Vec
}

// Factory constructs a fresh model with deterministic initialization. FL
// components use factories so every party and the aggregator agree on
// architecture and the initial global model.
type Factory func(r *rng.Source) Model

// BlockSize is how many samples a built-in model takes through one pass over
// its parameters: the four samples tensor.Mat.MulVec4Into puts in lanes for a
// forward product, and the four rank-1 updates tensor.Mat.AddOuterInPlace
// applies per pass over a gradient matrix.
const BlockSize = 4

// blockScratch returns BlockSize vectors of length n, the per-sample slots of
// one block, cut from a single allocation.
func blockScratch(n int) (slots [BlockSize]tensor.Vec) {
	backing := tensor.NewVec(BlockSize * n)
	for k := range slots {
		slots[k] = backing[k*n : (k+1)*n : (k+1)*n]
	}
	return slots
}

// mulBlock sets zs[k] = w·xs[k] for each sample of a block, with one
// MulVec4Into when the block is full and one MulVecInto per sample otherwise.
// Either way zs[k][i] is Row(i).Dot(xs[k]).
func mulBlock(w *tensor.Mat, zs, xs []tensor.Vec) {
	if len(zs) == BlockSize {
		w.MulVec4Into(zs[0], zs[1], zs[2], zs[3], xs[0], xs[1], xs[2], xs[3])
		return
	}
	for k, z := range zs {
		w.MulVecInto(z, xs[k])
	}
}

// forwardBlock sets zs[k] = w·xs[k] + b for each sample of a block — its
// logits, or its pre-activations: zs[k][i] is Row(i).Dot(xs[k]) + b[i].
func forwardBlock(w *tensor.Mat, b tensor.Vec, zs, xs []tensor.Vec) {
	mulBlock(w, zs, xs)
	for _, z := range zs {
		z.AddInPlace(b)
	}
}

// features gathers the feature vectors of a block's samples into xs and
// returns the filled prefix.
func features(xs *[BlockSize]tensor.Vec, block []dataset.Sample) []tensor.Vec {
	for k, s := range block {
		xs[k] = s.X
	}
	return xs[:len(block)]
}

// classify returns the argmax class of w·xs[k] + b for each of the first n
// samples of a block and its margin, in one tensor.Mat.ArgMaxAffine4 pass,
// and zeros past them. A margin that is NaN or ±Inf becomes -Inf. A short
// block fills the spare slots of xs with its last sample first, so every
// lane scores a real sample and the spare lanes are dropped.
func classify(w *tensor.Mat, b tensor.Vec, xs *[BlockSize]tensor.Vec, n int) (classes [BlockSize]int, margins [BlockSize]float64) {
	if n == 0 {
		return classes, margins
	}
	for k := n; k < BlockSize; k++ {
		xs[k] = xs[n-1]
	}
	classes, margins = w.ArgMaxAffine4(b, xs[0], xs[1], xs[2], xs[3])
	for k := range margins {
		switch {
		case k >= n:
			classes[k], margins[k] = 0, 0
		case !(margins[k]-margins[k] == 0):
			margins[k] = math.Inf(-1)
		}
	}
	return classes, margins
}

// axpyEach performs v += a*x for each x in order — a bias gradient's share of
// one block — in one pass over v when the block is full.
func axpyEach(v tensor.Vec, a float64, xs []tensor.Vec) {
	if len(xs) == BlockSize {
		v.Axpy4(a, a, a, a, xs[0], xs[1], xs[2], xs[3])
		return
	}
	for _, x := range xs {
		v.Axpy(a, x)
	}
}
