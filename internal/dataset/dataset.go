// Package dataset synthesizes the four evaluation workloads of the FLIPS
// paper (MIT-BIH ECG, HAM10000 skin lesions, FEMNIST, Fashion-MNIST) as
// labeled feature-vector datasets.
//
// The real datasets are images/signals trained with CNNs; the properties
// FLIPS's evaluation actually depends on are (a) the marginal label
// distribution (heavily skewed for ECG and HAM10000, near-balanced for
// FEMNIST/Fashion-MNIST), (b) per-class feature separability so a classifier
// improves on a class only when that class is represented in training, and
// (c) a held-out global test set covering all labels. Each generator
// preserves exactly those properties: every class has a latent prototype in
// feature space and samples are prototype + Gaussian noise, with class priors
// matching the real dataset's skew. See DESIGN.md "Substitutions".
package dataset

import (
	"fmt"

	"flips/internal/rng"
	"flips/internal/tensor"
)

// Sample is one labeled example.
type Sample struct {
	X tensor.Vec
	Y int
}

// Dataset is a labeled collection of feature vectors.
type Dataset struct {
	Name       string
	LabelNames []string
	Dim        int
	Samples    []Sample
}

// NumClasses returns the number of distinct labels the dataset declares.
func (d *Dataset) NumClasses() int { return len(d.LabelNames) }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Spec describes a synthetic dataset generator.
type Spec struct {
	// Name identifies the emulated dataset.
	Name string
	// LabelNames gives human-readable class names; its length fixes the
	// number of classes.
	LabelNames []string
	// ClassPriors is the marginal probability of each class. It must have
	// the same length as LabelNames and is normalized during generation.
	ClassPriors []float64
	// Dim is the feature dimensionality.
	Dim int
	// Separation scales the distance between class prototypes.
	Separation float64
	// Noise is the within-class standard deviation.
	Noise float64
	// TrainSize and TestSize set sample counts. The test set is drawn with
	// *uniform* class priors so that the paper's balanced per-label accuracy
	// metric (§4.4) has enough support for every class.
	TrainSize, TestSize int
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	if len(s.LabelNames) < 2 {
		return fmt.Errorf("dataset %q: need at least 2 classes, have %d", s.Name, len(s.LabelNames))
	}
	if len(s.ClassPriors) != len(s.LabelNames) {
		return fmt.Errorf("dataset %q: %d priors for %d classes", s.Name, len(s.ClassPriors), len(s.LabelNames))
	}
	var sum float64
	for i, p := range s.ClassPriors {
		if p < 0 {
			return fmt.Errorf("dataset %q: negative prior for class %d", s.Name, i)
		}
		sum += p
	}
	if sum == 0 {
		return fmt.Errorf("dataset %q: all-zero class priors", s.Name)
	}
	if s.Dim <= 0 {
		return fmt.Errorf("dataset %q: non-positive dim %d", s.Name, s.Dim)
	}
	if s.TrainSize <= 0 || s.TestSize <= 0 {
		return fmt.Errorf("dataset %q: non-positive sizes train=%d test=%d", s.Name, s.TrainSize, s.TestSize)
	}
	return nil
}

// Generate synthesizes a train and test split that share class prototypes.
// The same seed always yields the same data.
func Generate(spec Spec, r *rng.Source) (train, test *Dataset, err error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	k := len(spec.LabelNames)

	// Latent class prototypes: random Gaussian directions scaled so the
	// expected inter-prototype distance is ~Separation.
	protoRng := r.Split(0xA11CE)
	prototypes := make([]tensor.Vec, k)
	for c := range prototypes {
		p := tensor.NewVec(spec.Dim)
		for i := range p {
			p[i] = protoRng.NormFloat64()
		}
		norm := p.Norm2()
		if norm > 0 {
			p.ScaleInPlace(spec.Separation / norm)
		}
		prototypes[c] = p
	}

	draw := func(dr *rng.Source, n int, priors []float64) *Dataset {
		ds := &Dataset{Name: spec.Name, LabelNames: spec.LabelNames, Dim: spec.Dim}
		ds.Samples = make([]Sample, n)
		for i := 0; i < n; i++ {
			y := dr.Categorical(priors)
			x := prototypes[y].Clone()
			for j := range x {
				x[j] += spec.Noise * dr.NormFloat64()
			}
			ds.Samples[i] = Sample{X: x, Y: y}
		}
		return ds
	}

	uniform := make([]float64, k)
	for i := range uniform {
		uniform[i] = 1
	}
	train = draw(r.Split(0x7EA1), spec.TrainSize, spec.ClassPriors)
	test = draw(r.Split(0x7E57), spec.TestSize, uniform)
	return train, test, nil
}
