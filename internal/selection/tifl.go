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
// from. Above the scale threshold, tier mean losses are additionally maintained
// as streaming sums updated per observed party.
type TiFL struct {
	r      *rng.Source
	tiers  [][]int // tier -> party ids, fastest first
	tierOf []int
	loss   []float64 // last observed mean loss per party

	// scaleMode switches chooseTier to the incremental tierLossSum instead
	// of rescanning tier members.
	scaleMode   bool
	tierLossSum []float64

	segScratch [][]int // reusable virtual-concatenation segment list
}

var _ fl.Selector = (*TiFL)(nil)

// newTiFL builds a TiFL selector from profiled per-party latencies
// (the offline profiling phase of the TiFL system).
func newTiFL(latencies []float64, scaleThreshold int, r *rng.Source) *TiFL {
	n := len(latencies)
	numTiers := min(tiflTiers, n)
	t := &TiFL{
		r:      r,
		tierOf: make([]int, n),
		loss:   make([]float64, n),
	}
	// Quantile tiering: sort by latency, cut into equal tiers.
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
	if n > scaleThreshold {
		t.scaleMode = true
		t.tierLossSum = make([]float64, numTiers)
		for tier, members := range t.tiers {
			t.tierLossSum[tier] = float64(len(members)) // prior loss of 1 each
		}
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
	tier := s.chooseTier()
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

// chooseTier blends uniform and loss-weighted tier selection.
func (s *TiFL) chooseTier() int {
	// A variable, so 1−adaptivity is float64 arithmetic rather than an exact
	// constant expression: the blend weights keep their historical bits.
	adaptivity := tiflAdaptivity
	weights := make([]float64, len(s.tiers))
	for tier, members := range s.tiers {
		if len(members) == 0 {
			continue
		}
		var meanLoss float64
		if s.scaleMode {
			meanLoss = s.tierLossSum[tier] / float64(len(members))
		} else {
			for _, id := range members {
				meanLoss += s.loss[id]
			}
			meanLoss /= float64(len(members))
		}
		weights[tier] = float64((1-adaptivity)*1) + float64(adaptivity*math.Max(meanLoss, 1e-6))
	}
	return s.r.Categorical(weights)
}

// Observe implements fl.Selector: refresh per-party loss estimates,
// streaming the per-tier sums in fleet-scale mode.
func (s *TiFL) Observe(fb fl.RoundFeedback) {
	for _, r := range fb.Completed {
		if s.scaleMode {
			s.tierLossSum[s.tierOf[r.ID]] += r.MeanLoss - s.loss[r.ID]
		}
		s.loss[r.ID] = r.MeanLoss
	}
}
