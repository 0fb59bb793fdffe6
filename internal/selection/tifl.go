package selection

import (
	"math"
	"sort"

	"flips/internal/fl"
	"flips/internal/rng"
)

// TiFL's published settings (DESIGN.md, "Selector constants").
const (
	// tiflTiers is the number of latency tiers (5, as in TiFL); a fleet
	// smaller than that gets one tier per party.
	tiflTiers = 5
	// tiflAdaptivity blends uniform tier choice with loss-weighted choice in
	// [0,1]: TiFL's "adaptive tier selection approach to update the tiering
	// on the fly based on the observed ... accuracy".
	tiflAdaptivity = 0.7
)

// TiFL groups parties into latency tiers from an offline profiling pass and
// draws each round's participants from a single tier, which bounds the
// round's completion time by the tier's speed. Tier choice is adaptive:
// tiers whose parties currently exhibit higher training loss are favored.
// Because tiers reflect *platform* speed rather
// than *data*, tier-homogeneous rounds do not improve label coverage — the
// behaviour the FLIPS paper observes ("TiFL's adaptive tiering approach is
// unable to group the parties with under-represented labels into a single
// tier").
//
// Selection never materializes a candidate pool: the tier plus its
// neighbour top-ups are sampled as a virtual concatenation (identical RNG
// consumption and output to the historical pool-copy implementation), so a
// fleet-scale tier of tens of thousands of parties costs nothing to draw
// from. A tier's weight comes from a rescan of its members' losses in
// member order at every fleet size, redone only for the tiers an Observe
// touched, so a step costs one rescan of each touched tier.
type TiFL struct {
	r      *rng.Source
	tiers  [][]int // tier -> party ids, fastest first
	tierOf []int
	loss   []float64 // last observed mean loss per party

	weights    []float64 // each tier's weight, current where fresh is set
	fresh      []bool
	segScratch [][]int // reusable virtual-concatenation segment list
}

var _ fl.Selector = (*TiFL)(nil)

// newTiFL builds a TiFL selector from profiled per-party latencies
// (the offline profiling phase of the TiFL system).
func newTiFL(latencies []float64, r *rng.Source) *TiFL {
	n := len(latencies)
	numTiers := min(tiflTiers, n)
	t := &TiFL{
		r:       r,
		tierOf:  make([]int, n),
		loss:    make([]float64, n),
		weights: make([]float64, numTiers),
		fresh:   make([]bool, numTiers),
	}
	// Quantile tiering: sort by latency, cut into equal tiers (numTiers ≤ n,
	// so each gets a member).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if latencies[order[a]] != latencies[order[b]] {
			return latencies[order[a]] < latencies[order[b]]
		}
		return order[a] < order[b]
	})
	t.tiers = make([][]int, numTiers)
	for rank, id := range order {
		tier := rank * numTiers / n
		t.tiers[tier] = append(t.tiers[tier], id)
		t.tierOf[id] = tier
	}
	for i := range t.loss {
		t.loss[i] = 1 // optimistic prior so fresh tiers stay eligible
	}
	return t
}

// Name implements fl.Selector.
func (s *TiFL) Name() string { return "tifl" }

// Select implements fl.Selector: adaptively choose one tier, then sample the
// round's parties uniformly within it (topping up from neighbouring tiers
// when the tier is smaller than the request). The tier and its top-ups are
// sampled as a virtual concatenation of tier member slices — no pool copy —
// with the exact RNG consumption and index mapping of the historical
// implementation.
func (s *TiFL) Select(_, target int) []int {
	tier := s.r.Categorical(s.tierWeights())
	segs := append(s.segScratch[:0], s.tiers[tier])
	total := len(s.tiers[tier])
	// Top up from adjacent tiers if this tier is too small.
	for delta := 1; total < target && delta < len(s.tiers); delta++ {
		if t := tier - delta; t >= 0 {
			segs = append(segs, s.tiers[t])
			total += len(s.tiers[t])
		}
		if t := tier + delta; t < len(s.tiers) {
			segs = append(segs, s.tiers[t])
			total += len(s.tiers[t])
		}
	}
	s.segScratch = segs
	if target > total {
		target = total
	}
	idx := s.r.SampleWithoutReplacement(total, target)
	out := make([]int, target)
	for i, j := range idx {
		for _, seg := range segs {
			if j < len(seg) {
				out[i] = seg[j]
				break
			}
			j -= len(seg)
		}
	}
	return out
}

// tierWeights returns the tier choice's weights, a blend of uniform and
// loss-weighted choice, recomputing those of the tiers that are not fresh.
func (s *TiFL) tierWeights() []float64 {
	// A variable, so 1−adaptivity is float64 arithmetic rather than an exact
	// constant expression: the blend weights keep their historical bits.
	adaptivity := tiflAdaptivity
	for tier, members := range s.tiers {
		if s.fresh[tier] {
			continue
		}
		var meanLoss float64
		for _, id := range members {
			meanLoss += s.loss[id]
		}
		meanLoss /= float64(len(members))
		s.weights[tier] = float64((1-adaptivity)*1) + float64(adaptivity*math.Max(meanLoss, 1e-6))
		s.fresh[tier] = true
	}
	return s.weights
}

// Observe implements fl.Selector: refresh per-party loss estimates, leaving
// their tiers' weights to be recomputed.
func (s *TiFL) Observe(fb fl.RoundFeedback) {
	for _, r := range fb.Completed {
		s.loss[r.ID] = r.MeanLoss
		s.fresh[s.tierOf[r.ID]] = false
	}
}
