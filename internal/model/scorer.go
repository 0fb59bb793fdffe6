package model

import (
	"math"

	"flips/internal/dataset"
	"flips/internal/tensor"
)

// Affine is a bound X·‖x‖₂ + One that holds for every input x.
type Affine struct{ X, One float64 }

// Bounds is what a model states about one parameter snapshot for Scorer
// (DESIGN.md, "Drift-bounded scoring"). For every class c and input x, with
// z_c(x) the exact logit at the snapshot, z'_c(x) the exact logit at the
// previous one and ẑ_c(x) the logit PredictBlock computes:
//
//	|z_c(x) − z'_c(x)| ≤ Drift
//	|ẑ_c(x) − z_c(x)|  ≤ Round, unless a value of the pass overflows
//	every value the pass computes is at most Size in magnitude
//
// Every coefficient is rounded upward, so float error can only loosen a
// bound; +Inf or NaN states none.
type Bounds struct{ Drift, Round, Size Affine }

// bounded is the optional capability of models that state Bounds: Bounds
// returns them at the current parameters, given the previous snapshot's prev
// (nil for none). Scorer treats a model without it as unbounded. LogReg
// implements it.
type bounded interface {
	Bounds(prev tensor.Vec) Bounds
}

// unbounded states no bound: every snapshot re-scores every sample.
var unbounded = Bounds{
	Drift: Affine{math.Inf(1), math.Inf(1)},
	Round: Affine{math.Inf(1), math.Inf(1)},
	Size:  Affine{math.Inf(1), math.Inf(1)},
}

// sizeLimit is the Size (at the test set's largest ‖x‖₂) up to which a
// snapshot's forward passes cannot overflow: 2^1000, a factor 2^24 below the
// largest float64, so no value of a pass reaches ±Inf and Round holds.
const sizeLimit = 0x1p1000

// slack is 1 + 4u (u = 2⁻⁵³): scaling a check's two coefficients by it
// covers the rounding of the check's own product and sum, float64(p·n) + q.
const slack = 1 + 0x1p-51

// Scorer counts a model's correct predictions on a fixed test set at each of
// a run's parameter snapshots, taken in order. At every snapshot its counts
// equal ClassCounts', but it re-scores only the samples whose class the
// snapshot may have changed.
//
// For each sample it keeps the class of the last pass that scored it and a
// certificate: the logit margin of that pass, less its rounding bound, plus
// the drift accumulated up to it. A sample keeps its class while the drift
// accumulated since, plus the rounding bound of the current snapshot, stays
// below that certificate, which proves a fresh PredictBlock would pick the
// same class. Every other sample goes through PredictBlock, BlockSize at a
// time, and gets a new certificate. A snapshot whose bounds are not finite,
// or whose passes could overflow, re-scores every sample.
//
// A Scorer holds its own model clone and, like a model, must not be shared
// between goroutines.
type Scorer struct {
	m       Model
	samples []dataset.Sample
	prev    tensor.Vec // the previous snapshot's parameters; nil before the first
	// a and b accumulate the snapshots' Drift coefficients, rounded upward,
	// since the last snapshot that re-scored every sample.
	a, b    float64
	maxNorm float64   // the largest finite ‖x‖₂ of the test set
	norm    []float64 // ‖x‖₂ per sample, rounded upward; +Inf if not finite
	key     []float64 // the certificate per sample
	class   []int32   // the class of the pass that wrote key; -1 before the first
	redo    []int32   // this snapshot's samples to re-score, in index order
	block   [BlockSize]dataset.Sample
	correct []int // per label, the samples whose class is their label
	total   []int
}

// NewScorer returns a Scorer of a clone of m over samples, whose labels lie
// in [0, numClasses). Its first Counts call scores every sample.
func NewScorer(m Model, samples []dataset.Sample, numClasses int) *Scorer {
	s := &Scorer{
		m:       m.Clone(),
		samples: samples,
		norm:    make([]float64, len(samples)),
		key:     make([]float64, len(samples)),
		class:   make([]int32, len(samples)),
		redo:    make([]int32, 0, len(samples)),
		correct: make([]int, numClasses),
		total:   make([]int, numClasses),
	}
	for i, x := range samples {
		s.class[i] = -1
		s.total[x.Y]++
		n := normUp(sumSq(x.X, nil), len(x.X))
		if n < math.Inf(1) {
			s.maxNorm = max(s.maxNorm, n)
		} else {
			n = math.Inf(1) // never certified: re-scored at every snapshot
		}
		s.norm[i] = n
	}
	return s
}

// Counts sets the scorer's model to params and returns, for each label c,
// how many label-c samples it predicts correctly and how many there are. The
// slices are the scorer's own and are overwritten by the next call.
func (s *Scorer) Counts(params tensor.Vec) (correct, total []int) {
	s.m.SetParams(params)
	bd := unbounded
	if m, ok := s.m.(bounded); ok {
		bd = m.Bounds(s.prev)
	}
	if s.prev == nil {
		s.prev = tensor.NewVec(len(params))
	}
	copy(s.prev, params)

	s.a, s.b = addUp(s.a, bd.Drift.X), addUp(s.b, bd.Drift.One)
	p := mulUp(addUp(bd.Round.X, s.a), slack)
	q := mulUp(addUp(bd.Round.One, s.b), slack)
	sized := float64(bd.Size.X*s.maxNorm)+bd.Size.One < sizeLimit
	if !(p < math.Inf(1) && q < math.Inf(1) && sized) {
		// Re-score every sample and start accumulating drift afresh.
		s.a, s.b = 0, 0
		p, q = math.NaN(), math.NaN()
	}

	// Every index is written and the failing ones kept, without a branch to
	// mispredict on the few samples that fail.
	redo, kept := s.redo[:len(s.norm)], 0
	key := s.key[:len(s.norm)]
	for i, n := range s.norm {
		redo[kept] = int32(i)
		if !(float64(p*n)+q < key[i]) {
			kept++
		}
	}
	s.redo = redo[:kept]

	for redo := s.redo; len(redo) > 0; redo = redo[min(BlockSize, len(redo)):] {
		idx := redo[:min(BlockSize, len(redo))]
		for k, i := range idx {
			s.block[k] = s.samples[i]
		}
		classes, margins := s.m.PredictBlock(s.block[:len(idx)])
		for k, i := range idx {
			if y := s.samples[i].Y; (int(s.class[i]) == y) != (classes[k] == y) {
				if classes[k] == y {
					s.correct[y]++
				} else {
					s.correct[y]--
				}
			}
			s.class[i] = int32(classes[k])
			s.key[i] = math.Inf(-1)
			if sized {
				s.key[i] = s.certificate(margins[k], s.norm[i], bd.Round)
			}
		}
	}
	return s.correct, s.total
}

// certificate returns a lower bound on half a sample's exact logit gap at
// this snapshot, less the snapshot's rounding bound for it, plus the drift
// accumulated so far, for the sample's PredictBlock margin and ‖x‖₂ bound n.
// Each step rounds toward the smaller result, and the final extra step down
// covers an underflowing product in the check.
func (s *Scorer) certificate(margin, n float64, round Affine) float64 {
	lo := math.Inf(-1)
	half := math.Nextafter(math.Nextafter(margin, lo)*0.5, lo)
	err := addUp(mulUp(round.X, n), round.One)
	drift := math.Nextafter(math.Nextafter(s.a*n, lo)+s.b, lo)
	return math.Nextafter(math.Nextafter(math.Nextafter(half-err, lo)+drift, lo), lo)
}

// addUp and mulUp return upper bounds on the exact a + b and a·b.
func addUp(a, b float64) float64 { return math.Nextafter(a+b, math.Inf(1)) }
func mulUp(a, b float64) float64 { return math.Nextafter(a*b, math.Inf(1)) }

// tiny returns n times the smallest subnormal: a bound on the absolute error
// of n underflowing products, which the relative error bounds do not cover.
func tiny(n int) float64 { return float64(float64(n) * math.SmallestNonzeroFloat64) }

// gammaUp returns an upper bound on γₙ = n·u/(1 − n·u), u = 2⁻⁵³: the
// relative error bound of a chain of n roundings.
func gammaUp(n int) float64 {
	nu := math.Ldexp(float64(n), -53)
	return math.Nextafter(nu/math.Nextafter(1-nu, math.Inf(-1)), math.Inf(1))
}

// sumSq returns the float sum of (v[j] − w[j])², or of v[j]² for a nil w, in
// index order.
func sumSq(v, w tensor.Vec) float64 {
	var s float64
	if w == nil {
		for _, x := range v {
			s += float64(x * x)
		}
		return s
	}
	w = w[:len(v)]
	for j, x := range v {
		d := x - w[j]
		s += float64(d * d)
	}
	return s
}

// normUp returns an upper bound on the Euclidean norm whose n squared terms
// sumSq summed to s. The exact sum of squares is at most
// (s + n·2⁻¹⁰⁷⁴)/(1 − u)ⁿ⁺², which is at most (s + n·2⁻¹⁰⁷⁴)·(1 + (n+2)·2⁻⁵²):
// n − 1 rounded additions, a rounded square, a rounded difference and an
// underflow each.
func normUp(s float64, n int) float64 {
	v := mulUp(addUp(s, tiny(n)), 1+math.Ldexp(float64(n+2), -52))
	return math.Nextafter(math.Sqrt(v), math.Inf(1))
}

// rowNormUp returns an upper bound on the largest ‖m_i − w_i‖₂ over the rows
// i of m (of ‖m_i‖₂ for a nil w). A NaN anywhere makes it NaN.
func rowNormUp(m, w *tensor.Mat) float64 {
	var worst float64
	for i := 0; i < m.Rows; i++ {
		var wr tensor.Vec
		if w != nil {
			wr = w.Row(i)
		}
		worst = max(worst, sumSq(m.Row(i), wr))
	}
	return normUp(worst, m.Cols)
}

// absMaxUp returns an upper bound on the largest |v[j] − w[j]| (|v[j]| for a
// nil w). A NaN anywhere makes it NaN.
func absMaxUp(v, w tensor.Vec) float64 {
	var worst float64
	for j, x := range v {
		if w != nil {
			x -= w[j]
		}
		worst = max(worst, math.Abs(x))
	}
	return math.Nextafter(worst, math.Inf(1))
}
