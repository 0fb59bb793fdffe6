package selection

import (
	"sort"

	"flips/internal/fl"
	"flips/internal/rng"
)

// PowerOfChoice implements the biased client-selection framework of Cho et
// al. (referenced in paper §3): sample a candidate set of d ≥ Nr parties
// uniformly, then keep the Nr with the highest last-known local loss. It is
// provided as an extension baseline beyond the paper's four comparisons.
type PowerOfChoice struct {
	numParties int
	factor     float64 // d/Nr
	r          *rng.Source
	loss       []float64
}

var _ fl.Selector = (*PowerOfChoice)(nil)

// NewPowerOfChoice builds a Power-of-Choice selector sampling
// candidateFactor × target candidates per round; the registry builder checks
// that the factor is at least 1.
func NewPowerOfChoice(numParties int, candidateFactor float64, r *rng.Source) *PowerOfChoice {
	loss := make([]float64, numParties)
	for i := range loss {
		loss[i] = 1 // optimistic prior
	}
	return &PowerOfChoice{
		numParties: numParties,
		factor:     candidateFactor,
		r:          r,
		loss:       loss,
	}
}

// Name implements fl.Selector.
func (s *PowerOfChoice) Name() string { return "power-of-choice" }

// Select implements fl.Selector.
func (s *PowerOfChoice) Select(_, target int) []int {
	if target > s.numParties {
		target = s.numParties
	}
	d := int(s.factor * float64(target))
	if d < target {
		d = target
	}
	if d > s.numParties {
		d = s.numParties
	}
	candidates := s.r.SampleWithoutReplacement(s.numParties, d)
	sort.Slice(candidates, func(a, b int) bool {
		la, lb := s.loss[candidates[a]], s.loss[candidates[b]]
		if la != lb {
			return la > lb
		}
		return candidates[a] < candidates[b]
	})
	return candidates[:target]
}

// Observe implements fl.Selector.
func (s *PowerOfChoice) Observe(fb fl.RoundFeedback) {
	for _, r := range fb.Completed {
		s.loss[r.ID] = r.MeanLoss
	}
}
