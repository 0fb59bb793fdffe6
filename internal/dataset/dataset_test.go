package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"flips/internal/rng"
)

// LabelCounts returns a histogram over labels (length NumClasses).
func (d *Dataset) LabelCounts() []int {
	counts := make([]int, d.NumClasses())
	for _, s := range d.Samples {
		counts[s.Y]++
	}
	return counts
}

func TestBuiltinSpecsValid(t *testing.T) {
	t.Parallel()
	for _, spec := range AllSpecs() {
		if err := spec.Validate(); err != nil {
			t.Errorf("spec %q invalid: %v", spec.Name, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	t.Parallel()
	base := ECG()
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"one class", func(s *Spec) { s.LabelNames = []string{"only"} }},
		{"prior length mismatch", func(s *Spec) { s.ClassPriors = []float64{1, 1} }},
		{"negative prior", func(s *Spec) { s.ClassPriors[0] = -1 }},
		{"zero priors", func(s *Spec) {
			for i := range s.ClassPriors {
				s.ClassPriors[i] = 0
			}
		}},
		{"zero dim", func(s *Spec) { s.Dim = 0 }},
		{"zero train", func(s *Spec) { s.TrainSize = 0 }},
		{"zero test", func(s *Spec) { s.TestSize = 0 }},
	}
	for _, tc := range cases {
		spec := base
		spec.ClassPriors = append([]float64(nil), base.ClassPriors...)
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	spec := ECG().WithSizes(500, 100)
	a, _, err := Generate(spec, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(spec, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("sizes differ")
	}
	for i := range a.Samples {
		if a.Samples[i].Y != b.Samples[i].Y {
			t.Fatalf("labels diverge at %d", i)
		}
		for j := range a.Samples[i].X {
			if a.Samples[i].X[j] != b.Samples[i].X[j] {
				t.Fatalf("features diverge at sample %d dim %d", i, j)
			}
		}
	}
}

func TestGenerateSizesAndLabels(t *testing.T) {
	t.Parallel()
	for _, spec := range AllSpecs() {
		spec = spec.WithSizes(800, 300)
		train, test, err := Generate(spec, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if train.Len() != 800 || test.Len() != 300 {
			t.Fatalf("%s: sizes %d/%d", spec.Name, train.Len(), test.Len())
		}
		for _, s := range train.Samples {
			if s.Y < 0 || s.Y >= spec.NumClassesOfSpec() {
				t.Fatalf("%s: label %d out of range", spec.Name, s.Y)
			}
			if len(s.X) != spec.Dim {
				t.Fatalf("%s: dim %d != %d", spec.Name, len(s.X), spec.Dim)
			}
		}
	}
}

func TestECGSkew(t *testing.T) {
	t.Parallel()
	train, _, err := Generate(ECG().WithSizes(5000, 500), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	counts := train.LabelCounts()
	frac := float64(counts[0]) / float64(train.Len())
	if frac < 0.85 || frac > 0.94 {
		t.Fatalf("ECG N-beat fraction %v outside expected skew", frac)
	}
}

func TestHAMNvDominates(t *testing.T) {
	t.Parallel()
	train, _, err := Generate(HAM10000().WithSizes(5000, 500), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := train.LabelCounts()
	nvIdx := 5 // "nv"
	if train.LabelNames[nvIdx] != "nv" {
		t.Fatalf("label order changed: %v", train.LabelNames)
	}
	frac := float64(counts[nvIdx]) / float64(train.Len())
	if frac < 0.60 || frac > 0.74 {
		t.Fatalf("HAM nv fraction %v outside expected skew", frac)
	}
}

func TestTestSetIsBalanced(t *testing.T) {
	t.Parallel()
	// The test split uses uniform class priors so that the paper's balanced
	// accuracy metric has support for every class.
	_, test, err := Generate(ECG().WithSizes(1000, 5000), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := test.LabelCounts()
	for label, c := range counts {
		frac := float64(c) / float64(test.Len())
		if math.Abs(frac-0.2) > 0.05 {
			t.Fatalf("test label %d fraction %v not near uniform", label, frac)
		}
	}
}

func TestClassesAreSeparable(t *testing.T) {
	t.Parallel()
	// A nearest-prototype classifier on empirical class means must beat 90%
	// on the balanced test set, otherwise learnability assumptions break.
	spec := FEMNIST().WithSizes(3000, 1000)
	train, test, err := Generate(spec, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	k := train.NumClasses()
	means := make([][]float64, k)
	counts := make([]int, k)
	for c := range means {
		means[c] = make([]float64, spec.Dim)
	}
	for _, s := range train.Samples {
		for j, x := range s.X {
			means[s.Y][j] += x
		}
		counts[s.Y]++
	}
	for c := range means {
		if counts[c] == 0 {
			continue
		}
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for _, s := range test.Samples {
		best, bestD := -1, math.Inf(1)
		for c := range means {
			var d float64
			for j := range s.X {
				diff := s.X[j] - means[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == s.Y {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.9 {
		t.Fatalf("nearest-prototype accuracy %v; classes not separable enough", acc)
	}
}

func TestLabelCountsSumToLen(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := rng.New(seed)
		spec := HAM10000().WithSizes(200+r.Intn(300), 50)
		train, _, err := Generate(spec, r)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range train.LabelCounts() {
			total += c
		}
		return total == train.Len()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	t.Parallel()
	if _, ok := ByName("ham10000"); !ok {
		t.Fatal("ham10000 not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unexpected spec found")
	}
}

// NumClassesOfSpec is a test helper mirroring Dataset.NumClasses for specs.
func (s Spec) NumClassesOfSpec() int { return len(s.LabelNames) }
