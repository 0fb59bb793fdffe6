package selection

import (
	"math"
	"sort"

	"flips/internal/fl"
	"flips/internal/rng"
)

// scaleModeThreshold is the population size above which the adaptive
// selectors switch from their exact small-fleet algorithms (full scans /
// full pairwise clustering) to the bounded fleet-scale structures (top-k
// utility heaps, swap-removed exploration pools, bounded clustering pools).
// Below the threshold behavior is bit-identical to the pre-scale selectors;
// above it, per-round cost and memory stop growing with the population (Oort
// runs guided selection over ~1.3M clients this way — Lai et al., OSDI'21).
// The exported constructors pass it to the unexported ones, whose
// scaleThreshold parameter exists so the in-package tests can run a
// fleet-scale twin at a testable size.
const scaleModeThreshold = 2048

// The comparison baselines run at fixed published settings (DESIGN.md,
// "Selector constants"): Oort's reference-implementation defaults, with the
// 1.3× over-provisioning the FLIPS paper runs it at (§5.3). The scored family
// shares the exploration schedule and the candidate band.
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
	// candidatePool bounds the fleet-scale exploitation band: each round reads
	// the top max(candidatePool, 2·request) parties by utility off the heap
	// instead of scoring every tried party.
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
// exploitation samples from a bounded top-utility candidate band, untried
// parties live in a swap-removed pool, and per-round cost is
// O(candidates·log candidates + invited·log tried) regardless of population
// size.
type Oort struct {
	numParties int
	r          *rng.Source

	utility   []float64
	lastUsed  []int
	tried     []bool
	sawStrag  bool
	explore   float64
	dataSizes []float64

	// Fleet-scale state (scaleMode only). untried is an unordered pool with
	// untriedPos tracking each id's slot for O(1) swap-removal; heap holds
	// the tried ids keyed by utility.
	scaleMode  bool
	untried    []int
	untriedPos []int
	heap       utilityHeap

	// Reusable per-round scratch.
	candIDs    []int
	candScores []float64
	frontier   []int
	durScratch []float64
}

var _ fl.Selector = (*Oort)(nil)

// NewOort builds an Oort selector. dataSizes gives |B_i| per party (Oort
// weights statistical utility by the party's data volume); pass nil for
// uniform sizes.
func NewOort(numParties int, dataSizes []int, r *rng.Source) *Oort {
	return newOort(numParties, dataSizes, scaleModeThreshold, r)
}

func newOort(numParties int, dataSizes []int, scaleThreshold int, r *rng.Source) *Oort {
	o := &Oort{
		numParties: numParties,
		r:          r,
		utility:    make([]float64, numParties),
		lastUsed:   make([]int, numParties),
		tried:      make([]bool, numParties),
		dataSizes:  make([]float64, numParties),
		explore:    explorationFraction,
	}
	for i := range o.dataSizes {
		if dataSizes != nil && i < len(dataSizes) {
			o.dataSizes[i] = float64(dataSizes[i])
		} else {
			o.dataSizes[i] = 1
		}
	}
	if numParties > scaleThreshold {
		o.scaleMode = true
		o.untried = make([]int, numParties)
		o.untriedPos = make([]int, numParties)
		for i := range o.untried {
			o.untried[i] = i
			o.untriedPos[i] = i
		}
		o.heap = newUtilityHeap(numParties)
	}
	return o
}

// Name implements fl.Selector.
func (s *Oort) Name() string { return "oort" }

// Select implements fl.Selector.
func (s *Oort) Select(round, target int) []int {
	if target > s.numParties {
		target = s.numParties
	}
	request := target
	if s.sawStrag {
		request = int(math.Ceil(overProvisionFactor * float64(target)))
		if request > s.numParties {
			request = s.numParties
		}
	}
	if s.scaleMode {
		return s.selectScale(round, request)
	}

	// Split the request between exploration (never-tried parties) and
	// exploitation (highest utility among tried parties).
	var untried, tried []int
	for i := 0; i < s.numParties; i++ {
		if s.tried[i] {
			tried = append(tried, i)
		} else {
			untried = append(untried, i)
		}
	}
	nExplore := int(math.Round(s.explore * float64(request)))
	if nExplore > len(untried) {
		nExplore = len(untried)
	}
	nExploit := request - nExplore
	if nExploit > len(tried) {
		// Not enough history yet: widen exploration.
		nExplore = minInt(request, len(untried))
		nExploit = minInt(request-nExplore, len(tried))
	}

	selected := make([]int, 0, request)
	if nExplore > 0 {
		for _, j := range s.r.SampleWithoutReplacement(len(untried), nExplore) {
			selected = append(selected, untried[j])
		}
	}
	if nExploit > 0 {
		// Oort samples probabilistically among the high-utility candidates
		// (its priority queue is randomized within a utility band) rather
		// than deterministically taking the top-k, which avoids collapsing
		// onto a few pathological high-loss parties. Picked candidates are
		// swap-removed rather than zero-weighted: once every remaining
		// score is zero, Categorical falls back to uniform sampling over
		// the whole vector and a zeroed entry could be picked twice.
		cand := append([]int(nil), tried...)
		scores := make([]float64, len(cand))
		logRound := math.Log(float64(round + 1))
		for j, id := range cand {
			scores[j] = s.scoreAt(id, round, logRound)
		}
		for i := 0; i < nExploit && len(cand) > 0; i++ {
			j := s.r.Categorical(scores)
			selected = append(selected, cand[j])
			last := len(cand) - 1
			cand[j], scores[j] = cand[last], scores[last]
			cand, scores = cand[:last], scores[:last]
		}
	}
	return selected
}

// selectScale is the fleet-scale Select path: exploration samples the
// swap-removed untried pool, exploitation reads a bounded top-utility
// candidate band off the heap in place, scores it with the staleness bonus
// and samples within it. Cost is independent of the population size.
func (s *Oort) selectScale(round, request int) []int {
	nUntried := len(s.untried)
	nTried := s.heap.len()
	nExplore := int(math.Round(s.explore * float64(request)))
	if nExplore > nUntried {
		nExplore = nUntried
	}
	nExploit := request - nExplore
	if nExploit > nTried {
		nExplore = minInt(request, nUntried)
		nExploit = minInt(request-nExplore, nTried)
	}

	selected := make([]int, 0, request)
	if nExplore > 0 {
		for _, j := range s.r.SampleWithoutReplacement(nUntried, nExplore) {
			selected = append(selected, s.untried[j])
		}
	}
	if nExploit > 0 {
		band := candidatePool
		if band < 2*request {
			band = 2 * request
		}
		if band > nTried {
			band = nTried
		}
		s.candIDs, s.candScores, s.frontier = s.heap.top(band, s.candIDs[:0], s.candScores[:0], s.frontier)
		logRound := math.Log(float64(round + 1))
		for j, id := range s.candIDs {
			s.candScores[j] = s.scoreAt(id, round, logRound)
		}
		ids, scores := s.candIDs, s.candScores
		for i := 0; i < nExploit && len(ids) > 0; i++ {
			j := s.r.Categorical(scores)
			selected = append(selected, ids[j])
			last := len(ids) - 1
			ids[j], scores[j] = ids[last], scores[last]
			ids, scores = ids[:last], scores[:last]
		}
	}
	return selected
}

// score combines statistical utility, staleness bonus and systemic penalty.
func (s *Oort) score(id, round int) float64 {
	return s.scoreAt(id, round, math.Log(float64(round+1)))
}

// scoreAt is score with log(round+1), the same for every candidate of a
// Select, computed once by the caller.
func (s *Oort) scoreAt(id, round int, logRound float64) float64 {
	u := s.utility[id]
	// Staleness exploration bonus (Oort Eq. 2's confidence term).
	age := round - s.lastUsed[id]
	if age > 0 && round > 0 {
		u += stalenessWeight * u * math.Sqrt(logRound/float64(age))
	}
	return u
}

// markTried transitions a party into the tried set; in fleet-scale mode it
// swap-removes the party from the untried pool and enters it into the
// utility heap.
func (s *Oort) markTried(id int) {
	if s.tried[id] {
		return
	}
	s.tried[id] = true
	if !s.scaleMode {
		return
	}
	j := s.untriedPos[id]
	last := len(s.untried) - 1
	moved := s.untried[last]
	s.untried[j] = moved
	s.untriedPos[moved] = j
	s.untried = s.untried[:last]
	s.untriedPos[id] = -1
	s.heap.push(id, s.utility[id])
}

// setUtility writes a party's utility, re-keying its heap entry in
// fleet-scale mode.
func (s *Oort) setUtility(id int, u float64) {
	s.utility[id] = u
	if s.scaleMode {
		s.heap.set(id, u)
	}
}

// Observe implements fl.Selector. Feedback consumption is streaming: the
// only per-call storage is the reusable duration scratch (O(completed)), and
// every state update is an O(log tried) heap re-key — nothing scans or
// allocates proportionally to the population.
func (s *Oort) Observe(fb fl.RoundFeedback) {
	if len(fb.Stragglers) > 0 {
		s.sawStrag = true
	}
	// Median completed duration defines "slow" for the systemic penalty.
	s.durScratch = s.durScratch[:0]
	for _, id := range fb.Completed {
		if d, ok := fb.Duration[id]; ok {
			s.durScratch = append(s.durScratch, d)
		}
	}
	med := median(s.durScratch)
	for _, id := range fb.Completed {
		s.markTried(id)
		s.lastUsed[id] = fb.Round
		sq := fb.SqLoss[id]
		util := s.dataSizes[id] * math.Sqrt(math.Max(sq, 0))
		if med > 0 && fb.Duration[id] > med*1.5 {
			util /= slowPenalty
		}
		s.setUtility(id, util)
	}
	// Stragglers burn their utility so repeat offenders fall in rank.
	for _, id := range fb.Stragglers {
		s.markTried(id)
		s.setUtility(id, s.utility[id]/slowPenalty)
	}
	s.explore = math.Max(explorationFloor, s.explore*explorationDecay)
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

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
