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
type GradClus struct {
	numParties int
	r          *rng.Source
	pool       *gradPool
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
	grads := make([]tensor.Vec, len(pool))
	for i, id := range pool {
		grads[i] = s.pool.gradient(id)
	}
	dist := cluster.CosineDistanceMatrix(grads)
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

// Observe implements fl.Selector: store the completed parties' updates as
// their current gradient representation (see gradPool.observe).
func (s *GradClus) Observe(fb fl.RoundFeedback) { s.pool.observe(fb) }
