package selection

import (
	"flips/internal/cluster"
	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// GradClus implements clustered sampling over party gradients (Fraboni et
// al. 2021, the paper's §4.1 third baseline): every round it hierarchically
// clusters the parties' last-known model updates into Nr groups by cosine
// similarity and picks one random party per group. Parties that have never
// participated carry random placeholder gradients ("The gradients assigned
// in the beginning are random numbers and get iteratively updated as the
// party gets picked").
//
// The gradient memory and its bounded fleet-scale pool live in gradPool
// (shared with the DPP selector). Below the scale threshold the full
// population is clustered, as the original algorithm specifies
// (bit-identical to the pre-scale implementation); above it clustering runs
// over the bounded pool.
//
// Below the threshold the pool is the whole population in id order every
// round, and only Observe changes a gradient, so the distance matrix is
// selector state: dist and norms hold every pair's and every party's current
// values, Observe lists in stale the parties whose gradient it replaced, and
// Select recomputes only their rows and columns — O(c·n·d) per round for c
// observed parties instead of O(n²·d). An entry is a pure function of its two
// current gradients (cluster.CosineDistance), so a kept entry is bit-equal to
// a fresh one.
type GradClus struct {
	numParties int
	r          *rng.Source
	pool       *gradPool

	dist  *tensor.Mat // nil until the first Select below the threshold
	work  *tensor.Mat // dist's copy that the clustering merges in
	norms []float64
	stale []int  // parties whose gradient changed since dist was current
	dirty []bool // membership of stale
}

var _ fl.Selector = (*GradClus)(nil)
var _ fl.UpdateConsumer = (*GradClus)(nil)

// newGradClus builds a GradClus selector. gradDim is the model parameter
// count (placeholder-gradient dimensionality).
func newGradClus(numParties, gradDim, scaleThreshold int, r *rng.Source) *GradClus {
	return &GradClus{
		numParties: numParties,
		r:          r,
		pool:       newGradPool(numParties, gradDim, scaleThreshold, r),
	}
}

// Name implements fl.Selector.
func (s *GradClus) Name() string { return "gradclus" }

// NeedsUpdates implements fl.UpdateConsumer: clustering runs on the parties'
// last-known model deltas, so the engine must materialize them.
func (s *GradClus) NeedsUpdates() bool { return true }

// Select implements fl.Selector: hierarchical clustering into target groups,
// one uniformly random party from each.
func (s *GradClus) Select(_, target int) []int {
	if target > s.numParties {
		target = s.numParties
	}
	pool := s.pool.pool(target, s.r)
	var dist *tensor.Mat
	if s.pool.scaleMode {
		grads := make([]tensor.Vec, len(pool))
		for i, id := range pool {
			grads[i] = s.pool.gradient(id)
		}
		dist = cluster.CosineDistanceMatrix(grads)
	} else {
		fresh := s.distances()
		dist = s.work
		copy(dist.Data, fresh.Data)
	}
	assign, err := cluster.Agglomerative(dist, target)
	if err != nil {
		// Degenerate geometry cannot occur with a square matrix and
		// validated target, but fall back to random rather than failing
		// the FL job.
		out := make([]int, target)
		for i, j := range s.r.SampleWithoutReplacement(len(pool), target) {
			out[i] = pool[j]
		}
		return out
	}
	members := make([][]int, target)
	for i, c := range assign {
		members[c] = append(members[c], pool[i])
	}
	out := make([]int, 0, target)
	for _, group := range members {
		if len(group) == 0 {
			continue
		}
		out = append(out, group[s.r.Intn(len(group))])
	}
	return out
}

// distances returns the population's distance matrix below the threshold,
// brought up to date: the first call marks every party stale, so it fills
// the whole matrix; later calls recompute only the stale parties' rows and
// columns.
func (s *GradClus) distances() *tensor.Mat {
	grads := s.pool.grads
	if s.dist == nil {
		n := len(grads)
		s.dist, s.work = tensor.NewMat(n, n), tensor.NewMat(n, n)
		s.norms = make([]float64, n)
		s.dirty = make([]bool, n)
		for id := range grads {
			s.dirty[id] = true
			s.stale = append(s.stale, id)
		}
	}
	for _, id := range s.stale {
		s.norms[id] = grads[id].Norm2()
	}
	// A row clears its party's mark first and skips parties still marked:
	// their own rows take the pair, so each pair is computed once.
	for _, id := range s.stale {
		s.dirty[id] = false
		g, n := grads[id], s.norms[id]
		for j, h := range grads {
			if j == id || s.dirty[j] {
				continue
			}
			v := cluster.CosineDistance(g, h, n, s.norms[j])
			s.dist.Set(id, j, v)
			s.dist.Set(j, id, v)
		}
	}
	s.stale = s.stale[:0]
	return s.dist
}

// Observe implements fl.Selector: store the completed parties' updates as
// their current gradient representation (see gradPool.observe), and mark the
// parties whose gradient that replaced for the next Select's distances.
func (s *GradClus) Observe(fb fl.RoundFeedback) {
	s.pool.observe(fb)
	if s.dist == nil {
		return
	}
	for _, r := range fb.Completed {
		if len(r.Update) == s.pool.gradDim && !s.dirty[r.ID] {
			s.dirty[r.ID] = true
			s.stale = append(s.stale, r.ID)
		}
	}
}
