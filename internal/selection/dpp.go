package selection

import (
	"math"

	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// DPP selects a diverse cohort by greedy MAP inference over a determinantal
// point process whose kernel is the cosine similarity of the parties'
// last-known model updates (the data-heterogeneity-aware DPP selection of
// arXiv 2303.17358): each step adds the party with the largest marginal
// gain in log-determinant, i.e. the one least representable by the cohort
// chosen so far — the opposite failure mode of loss-greedy selectors, which
// collapse onto redundant high-loss parties under non-IID data.
//
// The greedy step uses the incremental Cholesky update (Chen et al. 2018):
// maintaining per-candidate marginal gains d_i² and projection rows c_i
// makes each of the k steps O(pool), so a full Select is O(k·pool·dim)
// rather than the naive O(k·pool³).
//
// Gradient memory is the shared gradPool: below the scale threshold the
// pool is the full population in id order (Select consumes no
// randomness), above it the bounded recency pool. Never-observed parties
// carry the pool's random placeholder gradients, which look maximally
// diverse to the kernel — exploration falls out of the model.
type DPP struct {
	numParties int
	r          *rng.Source
	pool       *gradPool

	// Reusable per-round scratch: unit-normalized features, marginal gains,
	// Cholesky projection rows, selection bitmap.
	feats    []tensor.Vec
	di2      []float64
	cis      []tensor.Vec
	selected []bool
}

var _ fl.Selector = (*DPP)(nil)
var _ fl.UpdateConsumer = (*DPP)(nil)

// newDPP builds a DPP selector. gradDim is the model parameter count
// (placeholder-gradient dimensionality).
func newDPP(numParties, gradDim, scaleThreshold int, r *rng.Source) *DPP {
	return &DPP{
		numParties: numParties,
		r:          r,
		pool:       newGradPool(numParties, gradDim, scaleThreshold, r),
	}
}

// Name implements fl.Selector.
func (s *DPP) Name() string { return "dpp" }

// NeedsUpdates implements fl.UpdateConsumer: the kernel runs on the parties'
// last-known model deltas, so the engine must materialize them.
func (s *DPP) NeedsUpdates() bool { return true }

// Select implements fl.Selector: greedy MAP over the DPP kernel, exactly
// min(target, N) parties. Ties (and the degenerate case where remaining
// marginal gains vanish, e.g. duplicate gradients) resolve to the lowest
// pool position, so selection is fully deterministic given the pool.
func (s *DPP) Select(_, target int) []int {
	if target > s.numParties {
		target = s.numParties
	}
	pool := s.pool.pool(target, s.r)
	n := len(pool)

	if cap(s.feats) < n {
		s.feats = make([]tensor.Vec, n)
		s.di2 = make([]float64, n)
		s.cis = make([]tensor.Vec, n)
		s.selected = make([]bool, n)
	}
	feats, di2, selected := s.feats[:n], s.di2[:n], s.selected[:n]
	for i, id := range pool {
		g := s.pool.gradient(id)
		norm := g.Norm2()
		if norm > 0 {
			f := g.Clone()
			f.ScaleInPlace(1 / norm)
			feats[i] = f
			di2[i] = 1 // K(i,i) = ⟨f_i, f_i⟩
		} else {
			feats[i] = nil
			di2[i] = 0 // zero update: no volume to contribute
		}
		selected[i] = false
	}

	out := make([]int, 0, target)
	for step := 0; step < target; step++ {
		best, bestGain := -1, 0.0
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			if di2[i] > bestGain {
				best, bestGain = i, di2[i]
			}
		}
		if best < 0 || bestGain < 1e-12 {
			break // remaining candidates are (numerically) spanned
		}
		selected[best] = true
		out = append(out, pool[best])
		if len(out) == target {
			break
		}
		// Incremental Cholesky row: e_i = (K(best,i) − ⟨c_best, c_i⟩)/d_best,
		// appended to each candidate's projection, shrinking its gain.
		dBest := math.Sqrt(di2[best])
		cBest := s.cis[best]
		for i := 0; i < n; i++ {
			if selected[i] || di2[i] <= 0 {
				continue
			}
			var k float64
			if feats[best] != nil && feats[i] != nil {
				k = feats[best].Dot(feats[i])
			}
			for t := range cBest {
				k -= float64(cBest[t] * s.cis[i][t])
			}
			e := k / dBest
			s.cis[i] = append(s.cis[i], e)
			di2[i] -= float64(e * e)
			if di2[i] < 0 {
				di2[i] = 0
			}
		}
		s.cis[best] = append(s.cis[best], dBest)
	}
	// Degenerate geometry (all remaining gains ~0): top up in pool order so
	// the cohort is still exactly target-sized.
	for i := 0; i < n && len(out) < target; i++ {
		if !selected[i] {
			selected[i] = true
			out = append(out, pool[i])
		}
	}
	for i := 0; i < n; i++ {
		s.cis[i] = s.cis[i][:0]
	}
	return out
}

// Observe implements fl.Selector: store the completed parties' updates as
// their current gradient representation (see gradPool.observe).
func (s *DPP) Observe(fb fl.RoundFeedback) { s.pool.observe(fb) }
