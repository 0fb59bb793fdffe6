package selection

import (
	"math"
	"sort"

	"flips/internal/fl"
	"flips/internal/fmath"
	"flips/internal/rng"
)

// scaleModeThreshold is the population size above which Oort, GradClus/DPP
// and the label-clustering builders switch from their exact small-fleet
// algorithms (full scans / full pairwise clustering / the full k sweep) to
// bounded fleet-scale ones (a top-k utility heap and swap-removed untried
// pool, a bounded gradient pool, a capped sweep); TiFL and the Scored family
// run one algorithm at every size. Below the threshold behavior is
// bit-identical to the pre-scale selectors; above it, per-round cost and
// memory stop growing with the population (Oort runs guided selection over
// ~1.3M clients this way — Lai et al., OSDI'21). The Oort, GradClus and DPP
// constructors take it as scaleThreshold so the in-package tests can run a
// fleet-scale twin at a testable size.
const scaleModeThreshold = 2048

// The comparison baselines run at fixed published settings (DESIGN.md,
// "Selector constants"): Oort's reference-implementation defaults, with the
// 1.3× over-provisioning the FLIPS paper runs it at (§5.3). The scored family
// shares the exploration schedule and the candidate band (band.go).
const (
	// explorationFraction is the share of each round reserved for parties
	// never tried before; it decays by explorationDecay per round down to
	// explorationFloor.
	explorationFraction = 0.3
	explorationDecay    = 0.98
	explorationFloor    = 0.1
	// overProvisionFactor inflates Oort's request once stragglers have been
	// observed.
	overProvisionFactor = 1.3
	// stalenessWeight scales the exploration bonus sqrt(log(r)/age) added to
	// a tried party's utility.
	stalenessWeight = 0.1
	// slowPenalty divides the utility of parties slower than 1.5× the round's
	// median duration, and of stragglers (Oort's systemic utility).
	slowPenalty = 2
	// candidatePool bounds the Scored and fleet-scale Oort band: each round
	// reads the top max(candidatePool, 2·request) parties by utility off the
	// heap's band instead of scoring every tried party.
	candidatePool = 256
)

// Oort implements guided participant selection: parties are ranked by a
// statistical utility |B_i| * sqrt(mean loss²) — high-loss parties
// contribute more to convergence — discounted by a systemic (speed) utility,
// with an exploration budget for never-tried parties and over-provisioning
// once stragglers appear.
//
// Below the scale threshold the selector scans the full population per
// round (bit-identical to the original implementation). Above it, it runs in
// fleet-scale mode: tried parties live in a top-k utility heap and
// exploitation samples from a bounded top-utility candidate band, which the
// heap keeps sorted between rounds; untried parties live in a swap-removed
// pool. Per-round cost does not grow with the population: Select copies and
// scores the band, O(candidates), and each Observe re-key costs
// O(log tried + candidates) — a sift plus at most one band shift.
type Oort struct {
	numParties int
	r          *rng.Source
	triedSet

	lastUsed  []int
	sawStrag  bool
	dataSizes []float64

	// Fleet-scale state (scaleMode only): the tried set keeps its heap, and
	// untried is an unordered pool with untriedPos tracking each id's slot
	// for O(1) swap-removal.
	scaleMode  bool
	untried    []int
	untriedPos []int

	durScratch []float64
}

var _ fl.Selector = (*Oort)(nil)

// newOort builds an Oort selector. dataSizes gives |B_i| per party (Oort
// weights statistical utility by the party's data volume); pass nil for
// uniform sizes.
func newOort(numParties int, dataSizes []int, scaleThreshold int, r *rng.Source) *Oort {
	o := &Oort{
		numParties: numParties,
		r:          r,
		triedSet:   newTriedSet(numParties, numParties > scaleThreshold),
		lastUsed:   make([]int, numParties),
		dataSizes:  make([]float64, numParties),
		scaleMode:  numParties > scaleThreshold,
	}
	for i := range o.dataSizes {
		if dataSizes != nil && i < len(dataSizes) {
			o.dataSizes[i] = float64(dataSizes[i])
		} else {
			o.dataSizes[i] = 1
		}
	}
	if o.scaleMode {
		o.untried = make([]int, numParties)
		o.untriedPos = make([]int, numParties)
		for i := range o.untried {
			o.untried[i] = i
			o.untriedPos[i] = i
		}
	}
	return o
}

// Name implements fl.Selector.
func (s *Oort) Name() string { return "oort" }

// Select implements fl.Selector: the request, over-provisioned 1.3× once
// stragglers have been seen, is split between exploration, sampled uniformly
// from the untried parties, and exploitation, drawn from the candidate band
// scored with the staleness bonus. Below the scale threshold the band is
// every tried party in ID order, found with the untried ones by one scan;
// above it the untried parties are the swap-removed pool and the band the
// bounded top of the utility heap, so the cost is independent of the
// population size.
func (s *Oort) Select(round, target int) []int {
	target = min(target, s.numParties)
	request := target
	if s.sawStrag {
		request = min(int(math.Ceil(overProvisionFactor*float64(target))), s.numParties)
	}
	nExplore, nExploit := s.split(request)

	pool := s.untried
	if !s.scaleMode {
		pool = nil
		s.candIDs, s.candScores = s.candIDs[:0], s.candScores[:0]
		for id, tried := range s.tried {
			if tried {
				s.candIDs = append(s.candIDs, id)
				s.candScores = append(s.candScores, 0)
			} else {
				pool = append(pool, id)
			}
		}
	}
	selected := make([]int, 0, request)
	if nExplore > 0 {
		for _, j := range s.r.SampleWithoutReplacement(len(pool), nExplore) {
			selected = append(selected, pool[j])
		}
	}
	if nExploit > 0 {
		if s.scaleMode {
			s.readBand(request)
		}
		logRound := fmath.Log(float64(round + 1))
		for j, id := range s.candIDs {
			s.candScores[j] = s.scoreAt(id, round, logRound)
		}
		selected = s.draw(selected, nExploit, s.r)
	}
	return selected
}

// scoreAt combines statistical utility, staleness bonus and systemic
// penalty; logRound is log(round+1), the same for every candidate of a
// Select, computed once by the caller.
func (s *Oort) scoreAt(id, round int, logRound float64) float64 {
	u := s.utility[id]
	// Staleness exploration bonus (Oort Eq. 2's confidence term).
	age := round - s.lastUsed[id]
	if age > 0 && round > 0 {
		u += float64(stalenessWeight * u * math.Sqrt(logRound/float64(age)))
	}
	return u
}

// markTried transitions a party into the tried set; in fleet-scale mode it
// also swap-removes the party from the untried pool.
func (s *Oort) markTried(id int) {
	if !s.triedSet.markTried(id) || !s.scaleMode {
		return
	}
	j := s.untriedPos[id]
	last := len(s.untried) - 1
	moved := s.untried[last]
	s.untried[j] = moved
	s.untriedPos[moved] = j
	s.untried = s.untried[:last]
	s.untriedPos[id] = -1
}

// Observe implements fl.Selector. Feedback consumption is streaming: the
// only per-call storage is the reusable duration scratch (O(completed)), and
// every state update is a heap re-key that patches the band in place —
// nothing scans or allocates proportionally to the population.
func (s *Oort) Observe(fb fl.RoundFeedback) {
	if len(fb.Stragglers) > 0 {
		s.sawStrag = true
	}
	// Median completed duration defines "slow" for the systemic penalty.
	s.durScratch = s.durScratch[:0]
	for _, r := range fb.Completed {
		s.durScratch = append(s.durScratch, r.Duration)
	}
	med := median(s.durScratch)
	for _, r := range fb.Completed {
		id := r.ID
		s.markTried(id)
		s.lastUsed[id] = fb.Round
		util := s.dataSizes[id] * math.Sqrt(math.Max(r.SqLoss, 0))
		if med > 0 && r.Duration > med*1.5 {
			util /= slowPenalty
		}
		s.setUtility(id, util)
	}
	// Stragglers burn their utility so repeat offenders fall in rank.
	for _, id := range fb.Stragglers {
		s.markTried(id)
		s.setUtility(id, s.utility[id]/slowPenalty)
	}
	s.decay()
}

// median sorts xs in place and returns its median (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}
