package model

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"flips/internal/dataset"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// checkScorer scores params with s and requires, sample for sample, the class
// a fresh per-sample pass of m (set to params) picks, and ClassCounts' counts.
// It returns how many samples s re-scored.
func checkScorer(t *testing.T, s *Scorer, m Model, params tensor.Vec, numClasses int, what string) int {
	t.Helper()
	m.SetParams(params)
	correct, total := s.Counts(params)
	predict := referencePredictor(m)
	for i, x := range s.samples {
		if want, _ := predict(x.X); int(s.class[i]) != want {
			t.Fatalf("%s: sample %d kept class %d, a fresh pass picks %d", what, i, s.class[i], want)
		}
	}
	wantC, wantT := ClassCounts(m, s.samples, numClasses)
	if !slices.Equal(correct, wantC) || !slices.Equal(total, wantT) {
		t.Fatalf("%s: counts %v of %v, ClassCounts %v of %v", what, correct, total, wantC, wantT)
	}
	return len(s.redo)
}

// TestScorerMatchesClassCounts walks both job shapes — the ECG logistic
// regression and FEMNIST's MLP — from trained-looking parameters through
// small SGD steps and scores every step: each class must be a fresh pass's. Past the first snapshot, the
// logistic regression must keep most samples' classes without a pass, and
// the MLP, which states no bound, must re-score every sample.
func TestScorerMatchesClassCounts(t *testing.T) {
	t.Parallel()
	for _, shape := range [][3]int{{32, 0, 5}, {36, 32, 10}} {
		dim, hidden, classes := shape[0], shape[1], shape[2]
		r := rng.New(83)
		var m Model = NewLogReg(dim, classes)
		if hidden > 0 {
			m = NewMLP(dim, hidden, classes, r.Split(1))
		}
		train, test := randomBatch(r, 16, dim, classes), randomBatch(r, 500, dim, classes)
		for _, x := range train {
			x.X[x.Y%dim] += 3 // a learnable signal
		}
		p := m.(flatModel).paramsRef()
		for i := range p {
			p[i] = 0.3 * r.NormFloat64()
		}
		s := NewScorer(m, test, classes)
		cfg := SGDConfig{LearningRate: 0.001, BatchSize: 16, LocalEpochs: 1}
		var scratch TrainScratch
		rescored := 0
		const steps = 40
		for step := 0; step < steps; step++ {
			TrainLocalInPlace(m, train, cfg, m.Params(), r.Split(uint64(step)), &scratch)
			n := checkScorer(t, s, m.Clone(), m.Params(), classes, fmt.Sprintf("%T step %d", m, step))
			if step > 0 {
				rescored += n
			}
		}
		share := float64(rescored) / float64((steps-1)*len(test))
		if _, mlp := m.(*MLP); mlp && share != 1 || !mlp && share > 0.25 {
			t.Errorf("%T: re-scored %.1f%% of the samples after the first snapshot", m, 100*share)
		}
	}
}

// TestScorerNonFinite drives the scorer through NaN and ±Inf parameters and a
// test set with non-finite and huge features: every such snapshot re-scores
// what it must, and the classes stay a fresh pass's.
func TestScorerNonFinite(t *testing.T) {
	r := rng.New(89)
	m := NewLogReg(4, 3)
	test := randomBatch(r, 40, 4, 3)
	test[3].X[1] = math.NaN()
	test[7].X[0] = math.Inf(1)
	test[9].X[2] = math.MaxFloat64
	s := NewScorer(m, test, 3)
	p := m.Params()
	for i := range p {
		p[i] = r.NormFloat64()
	}
	walk := []func(){
		func() {},
		func() { p[2] = math.NaN() },
		func() { p[2] = 0.5 },
		func() {},
		func() { p[len(p)-1] = math.Inf(1) },
		func() { p[len(p)-1] = 0 },
		func() { p[5] = 1e300 },
		func() { p[5] = 1 },
		func() {},
	}
	for step, move := range walk {
		move()
		n := checkScorer(t, s, m.Clone(), p, 3, fmt.Sprintf("step %d", step))
		if step == 3 && n > 10 {
			t.Errorf("step 3 (no move) re-scored %d of 40 samples", n)
		}
	}
}

// FuzzScorer walks random LogReg and MLP parameters through zero steps,
// one-ulp steps, small and huge jumps, near-ties a few ulps wide and ±Inf/NaN
// snapshots, over a test set with some non-finite and huge features, and
// requires at every snapshot each sample's class to be a fresh pass's.
func FuzzScorer(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 2, 2, 0, 4, 4, 1})
	f.Add(uint64(2), []byte{2, 2, 4, 1, 1, 0, 7, 2, 4, 5, 0, 6, 2})
	f.Add(uint64(3), []byte{4, 0, 4, 0, 1, 4, 3, 6, 4, 2, 7, 7, 4})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		r := rng.New(seed)
		dim, classes, hidden := 1+r.Intn(8), 1+r.Intn(6), 0
		var m Model = NewLogReg(dim, classes)
		if r.Intn(2) == 0 {
			hidden = 1 + r.Intn(6)
			m = NewMLP(dim, hidden, classes, r.Split(1))
		}
		p := m.Params()
		for i := range p {
			p[i] = r.NormFloat64()
		}
		finite := p.Clone()
		test := randomBatch(r, 1+r.Intn(24), dim, classes)
		for _, x := range test {
			switch r.Intn(12) {
			case 0:
				x.X[r.Intn(dim)] = math.NaN()
			case 1:
				x.X[r.Intn(dim)] = math.Inf(2*r.Intn(2) - 1)
			case 2:
				x.X[r.Intn(dim)] = 1e300
			}
		}
		s := NewScorer(m, test, classes)
		bias := p[len(p)-classes:] // both layouts end with the output bias
		predict := referencePredictor(m)
		for step, op := range ops[:min(len(ops), 48)] {
			switch op % 8 {
			case 0: // no move
			case 1: // one ulp on a few parameters
				for range 1 + r.Intn(3) {
					i := r.Intn(len(p))
					p[i] = math.Nextafter(p[i], math.Inf(2*r.Intn(2)-1))
				}
			case 2: // a small step
				scale := math.Ldexp(1, -4-r.Intn(40))
				for i := range p {
					p[i] += scale * r.NormFloat64()
				}
			case 3: // a huge jump
				for i := range p {
					p[i] = math.Ldexp(r.NormFloat64(), r.Intn(1100)-50)
				}
			case 4: // a near-tie: lift every other class to a sample's winner, give or take a few ulps
				m.SetParams(p)
				c, margin := predict(test[r.Intn(len(test))].X)
				if margin > 0 && margin < math.Inf(1) {
					for k := range bias {
						if k != c {
							bias[k] += margin
							for range r.Intn(4) {
								bias[k] = math.Nextafter(bias[k], math.Inf(2*r.Intn(2)-1))
							}
						}
					}
				}
			case 5: // a non-finite parameter
				p[r.Intn(len(p))] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
			case 6: // back to finite parameters
				copy(p, finite)
			case 7: // a step on the output bias alone
				bias[r.Intn(classes)] += math.Ldexp(r.NormFloat64(), -r.Intn(60))
			}
			checkScorer(t, s, m, p, classes, fmt.Sprintf("seed %d %T dim %d hidden %d classes %d, step %d (op %d)", seed, m, dim, hidden, classes, step, op%8))
		}
	})
}

// scorerWalk returns the fleet_async evaluation shape — the ECG logistic
// regression (32→5) and a 1,000-sample test set — and a seeded walk of
// parameter snapshots from a trained-looking point, each a small step from
// the last.
func scorerWalk() (*LogReg, []dataset.Sample, []tensor.Vec) {
	r := rng.New(97)
	m := NewLogReg(32, 5)
	p := m.Params()
	for i := range p {
		p[i] = 0.3 * r.NormFloat64()
	}
	walk := make([]tensor.Vec, 64)
	for k := range walk {
		for i := range p {
			p[i] += 0.0002 * r.NormFloat64()
		}
		walk[k] = p.Clone()
	}
	return m, randomBatch(r, 1000, 32, 5), walk
}

// BenchmarkScorer times one snapshot's counts on the fleet_async shape,
// walking its snapshots forward and back so that every step is a small one.
// In steady state it allocates nothing.
func BenchmarkScorer(b *testing.B) {
	m, test, walk := scorerWalk()
	b.Run("logreg-ecg", func(b *testing.B) {
		s := NewScorer(m, test, 5)
		s.Counts(walk[0])
		b.ReportAllocs()
		b.ResetTimer()
		rescored := 0
		for i := 0; i < b.N; i++ {
			k := (i + 1) % (2*len(walk) - 2)
			if k >= len(walk) {
				k = 2*len(walk) - 2 - k
			}
			s.Counts(walk[k])
			rescored += len(s.redo)
		}
		b.ReportMetric(float64(rescored)/float64(b.N*len(test)), "rescored/sample")
	})
}
