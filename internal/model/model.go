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
	// Predict returns the argmax class for x.
	Predict(x tensor.Vec) int
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

// blockSize is how many samples a built-in model's LossGradient takes through
// its backward pass together: the four rank-1 updates tensor.Mat.AddOuterInPlace
// applies per pass over a gradient matrix.
const blockSize = 4

// blockScratch returns blockSize vectors of length n, the per-sample slots of
// one block, cut from a single allocation.
func blockScratch(n int) (slots [blockSize]tensor.Vec) {
	backing := tensor.NewVec(blockSize * n)
	for k := range slots {
		slots[k] = backing[k*n : (k+1)*n : (k+1)*n]
	}
	return slots
}

// axpyEach performs v += a*x for each x in order — a bias gradient's share of
// one block — in one pass over v when the block is full.
func axpyEach(v tensor.Vec, a float64, xs []tensor.Vec) {
	if len(xs) == blockSize {
		v.Axpy4(a, a, a, a, xs[0], xs[1], xs[2], xs[3])
		return
	}
	for _, x := range xs {
		v.Axpy(a, x)
	}
}
