package model

import (
	"math"
	"testing"
	"testing/quick"

	"flips/internal/dataset"
	"flips/internal/rng"
	"flips/internal/tensor"
)

func randomBatch(r *rng.Source, n, dim, classes int) []dataset.Sample {
	batch := make([]dataset.Sample, n)
	for i := range batch {
		x := tensor.NewVec(dim)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		batch[i] = dataset.Sample{X: x, Y: r.Intn(classes)}
	}
	return batch
}

// accuracy returns the plain (unbalanced) accuracy of m on the samples.
func accuracy(m Model, samples []dataset.Sample) float64 {
	correct := 0
	for _, s := range samples {
		if m.Predict(s.X) == s.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// checkGradient verifies the gradient LossGradient writes against central
// finite differences of the loss it returns.
func checkGradient(t *testing.T, m Model, batch []dataset.Sample, tol float64) {
	t.Helper()
	params := m.Params()
	grad, scratch := tensor.NewVec(m.NumParams()), tensor.NewVec(m.NumParams())
	m.LossGradient(batch, grad)

	const h = 1e-5
	// Spot-check a spread of coordinates (checking all is O(P²) work).
	stride := m.NumParams()/25 + 1
	for i := 0; i < m.NumParams(); i += stride {
		orig := params[i]
		params[i] = orig + h
		m.SetParams(params)
		lossPlus := m.LossGradient(batch, scratch)
		params[i] = orig - h
		m.SetParams(params)
		lossMinus := m.LossGradient(batch, scratch)
		params[i] = orig
		m.SetParams(params)

		numeric := (lossPlus - lossMinus) / (2 * h)
		if math.Abs(numeric-grad[i]) > tol*(1+math.Abs(numeric)) {
			t.Fatalf("grad[%d]: analytic %v vs numeric %v", i, grad[i], numeric)
		}
	}
}

func TestLogRegGradientMatchesFiniteDifference(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	m := NewLogReg(6, 4)
	// Move off the zero init so gradients are non-trivial.
	p := m.Params()
	for i := range p {
		p[i] = 0.3 * r.NormFloat64()
	}
	m.SetParams(p)
	checkGradient(t, m, randomBatch(r, 12, 6, 4), 1e-4)
}

func TestMLPGradientMatchesFiniteDifference(t *testing.T) {
	t.Parallel()
	r := rng.New(2)
	m := NewMLP(5, 7, 3, r)
	checkGradient(t, m, randomBatch(r, 10, 5, 3), 1e-3)
}

func TestParamsRoundTrip(t *testing.T) {
	t.Parallel()
	r := rng.New(3)
	models := []Model{NewLogReg(4, 3), NewMLP(4, 6, 3, r)}
	for _, m := range models {
		p := m.Params()
		for i := range p {
			p[i] = r.NormFloat64()
		}
		m.SetParams(p)
		got := m.Params()
		for i := range p {
			if got[i] != p[i] {
				t.Fatalf("%T: params round-trip mismatch at %d", m, i)
			}
		}
		if len(got) != m.NumParams() {
			t.Fatalf("%T: NumParams %d != len(Params) %d", m, m.NumParams(), len(got))
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	r := rng.New(4)
	for _, m := range []Model{NewLogReg(4, 3), NewMLP(4, 5, 3, r)} {
		c := m.Clone()
		p := c.Params()
		for i := range p {
			p[i] = 42
		}
		c.SetParams(p)
		orig := m.Params()
		for i := range orig {
			if orig[i] == 42 {
				t.Fatalf("%T: Clone shares parameter storage", m)
			}
		}
	}
}

func TestSetParamsPanicsOnBadLength(t *testing.T) {
	t.Parallel()
	for _, m := range []Model{NewLogReg(4, 3), NewMLP(4, 5, 3, rng.New(1))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: expected panic", m)
				}
			}()
			m.SetParams(tensor.NewVec(m.NumParams() + 1))
		}()
	}
}

func TestLogRegLearnsSeparableData(t *testing.T) {
	t.Parallel()
	r := rng.New(5)
	train, test, err := dataset.Generate(dataset.FEMNIST().WithSizes(2000, 500), r)
	if err != nil {
		t.Fatal(err)
	}
	m := NewLogReg(train.Dim, train.NumClasses())
	cfg := SGDConfig{LearningRate: 0.1, BatchSize: 32, LocalEpochs: 8}
	TrainLocal(m, train.Samples, cfg, nil, r.Split(1))
	if acc := accuracy(m, test.Samples); acc < 0.9 {
		t.Fatalf("logreg accuracy %v on separable data", acc)
	}
}

func TestMLPLearnsSeparableData(t *testing.T) {
	t.Parallel()
	r := rng.New(6)
	train, test, err := dataset.Generate(dataset.FEMNIST().WithSizes(2000, 500), r)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMLP(train.Dim, 32, train.NumClasses(), r.Split(2))
	cfg := SGDConfig{LearningRate: 0.05, BatchSize: 32, LocalEpochs: 20}
	TrainLocal(m, train.Samples, cfg, nil, r.Split(3))
	// The threshold is slightly below the logreg test's: this seed's random
	// prototypes include one close pair, putting the Bayes ceiling near 0.88.
	if acc := accuracy(m, test.Samples); acc < 0.85 {
		t.Fatalf("mlp accuracy %v on separable data", acc)
	}
}

func TestTrainLocalReducesLoss(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	train, _, err := dataset.Generate(dataset.ECG().WithSizes(1000, 100), r)
	if err != nil {
		t.Fatal(err)
	}
	m := NewLogReg(train.Dim, train.NumClasses())
	grad := tensor.NewVec(m.NumParams())
	before := m.LossGradient(train.Samples, grad)
	TrainLocal(m, train.Samples, SGDConfig{LearningRate: 0.1, BatchSize: 32, LocalEpochs: 3}, nil, r)
	after := m.LossGradient(train.Samples, grad)
	if after >= before {
		t.Fatalf("loss did not decrease: %v -> %v", before, after)
	}
}

func TestTrainLocalEmptyData(t *testing.T) {
	t.Parallel()
	m := NewLogReg(4, 3)
	res := TrainLocal(m, nil, SGDConfig{}, nil, rng.New(1))
	if res.NumSamples != 0 || res.Steps != 0 {
		t.Fatalf("empty-data result %+v", res)
	}
	if len(res.Params) != m.NumParams() {
		t.Fatal("empty-data result missing params")
	}
}

func TestProxTermPullsTowardGlobal(t *testing.T) {
	t.Parallel()
	r := rng.New(8)
	train, _, err := dataset.Generate(dataset.ECG().WithSizes(600, 100), r)
	if err != nil {
		t.Fatal(err)
	}
	global := tensor.NewVec(NewLogReg(train.Dim, train.NumClasses()).NumParams())

	run := func(mu float64) float64 {
		m := NewLogReg(train.Dim, train.NumClasses())
		res := TrainLocal(m, train.Samples,
			SGDConfig{LearningRate: 0.1, BatchSize: 32, LocalEpochs: 5, ProxMu: mu},
			global, rng.New(99))
		return res.Params.Dist(global)
	}
	if noProx, withProx := run(0), run(1.0); withProx >= noProx {
		t.Fatalf("prox µ=1 distance %v should be below µ=0 distance %v", withProx, noProx)
	}
}

func TestGradientClipping(t *testing.T) {
	t.Parallel()
	r := rng.New(9)
	train, _, err := dataset.Generate(dataset.ECG().WithSizes(300, 100), r)
	if err != nil {
		t.Fatal(err)
	}
	m := NewLogReg(train.Dim, train.NumClasses())
	// A tiny clip norm with one large LR step: parameter movement per step
	// must be bounded by lr * clip.
	cfg := SGDConfig{LearningRate: 1, BatchSize: len(train.Samples), LocalEpochs: 1, MaxGradNorm: 0.01}
	before := m.Params()
	res := TrainLocal(m, train.Samples, cfg, nil, r)
	if moved := res.Params.Dist(before); moved > 0.0100001 {
		t.Fatalf("clipped step moved %v > lr*clip", moved)
	}
}

func TestTrainLocalDeterministic(t *testing.T) {
	t.Parallel()
	r := rng.New(10)
	train, _, err := dataset.Generate(dataset.HAM10000().WithSizes(500, 100), r)
	if err != nil {
		t.Fatal(err)
	}
	run := func() tensor.Vec {
		m := NewLogReg(train.Dim, train.NumClasses())
		return TrainLocal(m, train.Samples,
			SGDConfig{LearningRate: 0.05, BatchSize: 16, LocalEpochs: 2}, nil, rng.New(55)).Params
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic training at param %d", i)
		}
	}
}

func TestBalancedAccuracyNeutralizesImbalance(t *testing.T) {
	t.Parallel()
	// A constant classifier predicting the majority class: plain accuracy is
	// high on an imbalanced set, balanced accuracy is 1/numClasses... here
	// exactly the recall structure: 100% on class 0, 0% elsewhere.
	m := NewLogReg(2, 4)
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
	if acc := accuracy(m, samples); acc < 0.96 {
		t.Fatalf("plain accuracy %v", acc)
	}
	if bacc := BalancedAccuracy(m, samples, 4); math.Abs(bacc-0.25) > 1e-9 {
		t.Fatalf("balanced accuracy %v, want 0.25", bacc)
	}
}

func TestBalancedAccuracySkipsAbsentLabels(t *testing.T) {
	t.Parallel()
	m := NewLogReg(2, 5)
	samples := []dataset.Sample{{X: tensor.Vec{0, 0}, Y: 0}}
	// Zero-init logreg ties all logits; ArgMax picks class 0 -> recall 1.
	if bacc := BalancedAccuracy(m, samples, 5); bacc != 1 {
		t.Fatalf("balanced accuracy %v with single present label", bacc)
	}
}

func TestPerLabelAccuracy(t *testing.T) {
	t.Parallel()
	m := NewLogReg(2, 3)
	samples := []dataset.Sample{
		{X: tensor.Vec{0, 0}, Y: 0},
		{X: tensor.Vec{0, 0}, Y: 1},
	}
	// Zero-init logreg predicts class 0 for everything: label 0 is recalled,
	// label 1 is not, label 2 is absent.
	correct, total := ClassCounts(m, samples, 3)
	for c, want := range [][2]int{{1, 1}, {0, 1}, {0, 0}} {
		if correct[c] != want[0] || total[c] != want[1] {
			t.Fatalf("label %d: %d of %d correct, want %d of %d", c, correct[c], total[c], want[0], want[1])
		}
	}
}

func TestGradientZeroAtOptimumProperty(t *testing.T) {
	t.Parallel()
	// Property: for logreg with a single sample, the gradient wrt the bias
	// rows sums to zero across classes (softmax probabilities sum to one).
	check := func(seed uint64) bool {
		r := rng.New(seed)
		dim, classes := 3, 4
		m := NewLogReg(dim, classes)
		p := m.Params()
		for i := range p {
			p[i] = r.NormFloat64()
		}
		m.SetParams(p)
		batch := randomBatch(r, 5, dim, classes)
		grad := tensor.NewVec(m.NumParams())
		m.LossGradient(batch, grad)
		biasGrad := grad[classes*dim:]
		return math.Abs(biasGrad.Sum()) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
