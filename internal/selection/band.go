package selection

import (
	"math"

	"flips/internal/rng"
)

// triedSet is the state Oort and the Scored family share, and the three
// steps of their Select written once: split a request between exploration
// and exploitation, read the candidate band, draw from it. Each embeds one.
type triedSet struct {
	// utility is each party's current utility (Oort) or score (Scored);
	// tried marks the parties that have reported at least once and nTried
	// counts them.
	utility []float64
	tried   []bool
	nTried  int
	// heap holds the tried parties keyed by utility, the best of them in its
	// persistent sorted band. It is nil (never allocated, never written) for
	// an owner that scans the tried set in ID order instead: Oort below the
	// scale threshold.
	heap utilityHeap
	// explore is the share of a request reserved for never-tried parties.
	explore float64

	// The candidates' ids and scores, copied off the heap's band each read
	// and reused across rounds.
	candIDs    []int
	candScores []float64
}

func newTriedSet(numParties int, heaped bool) triedSet {
	t := triedSet{
		utility: make([]float64, numParties),
		tried:   make([]bool, numParties),
		explore: explorationFraction,
	}
	if heaped {
		t.heap = newUtilityHeap(numParties)
	}
	return t
}

// markTried enters a party into the tried set (and the heap) and reports
// whether it was new.
func (t *triedSet) markTried(id int) bool {
	if t.tried[id] {
		return false
	}
	t.tried[id] = true
	t.nTried++
	if t.heap.pos != nil {
		t.heap.push(id, t.utility[id])
	}
	return true
}

// setUtility writes a party's utility, re-keying its heap entry first: the
// heap finds a band entry by its old key, read here before the overwrite.
func (t *triedSet) setUtility(id int, u float64) {
	if t.heap.pos != nil {
		t.heap.set(id, t.utility[id], u)
	}
	t.utility[id] = u
}

// decay shrinks the exploration share once per observed round, down to the
// floor.
func (t *triedSet) decay() {
	t.explore = math.Max(explorationFloor, t.explore*explorationDecay)
}

// split divides a request between exploration (never-tried parties) and
// exploitation (the tried band): the exploration share, capped by the
// untried count, and the rest — widening exploration while there is not
// enough history to exploit.
func (t *triedSet) split(request int) (nExplore, nExploit int) {
	nUntried := len(t.tried) - t.nTried
	nExplore = min(int(math.Round(t.explore*float64(request))), nUntried)
	nExploit = request - nExplore
	if nExploit > t.nTried {
		nExplore = min(request, nUntried)
		nExploit = min(request-nExplore, t.nTried)
	}
	return nExplore, nExploit
}

// readBand copies the candidate band off the heap in (utility desc, id asc)
// order — uniquely determined by the heap's strict total order regardless of
// its layout. A bounded band is the top max(candidatePool, 2·request) tried
// parties; an unbounded one is the whole tried set. The heap keeps its band
// sorted between reads and patches it on every re-key, so a read is O(k).
func (t *triedSet) readBand(request int, bounded bool) {
	k := t.nTried
	if bounded {
		k = min(max(candidatePool, 2*request), t.nTried)
	}
	t.candIDs, t.candScores = t.heap.top(k, t.candIDs[:0], t.candScores[:0])
}

// draw appends n parties sampled from the band by score, without
// replacement. Sampling within a utility band rather than taking the top-n
// keeps the selection from collapsing onto a few pathological high-loss
// parties (Oort's randomized priority band). Picked candidates are
// swap-removed rather than zero-weighted: once every remaining score is zero,
// Categorical falls back to uniform sampling over the whole vector and a
// zeroed entry could be picked twice. The band itself keeps its length.
func (t *triedSet) draw(selected []int, n int, r *rng.Source) []int {
	ids, scores := t.candIDs, t.candScores
	for i := 0; i < n && len(ids) > 0; i++ {
		j := r.Categorical(scores)
		selected = append(selected, ids[j])
		last := len(ids) - 1
		ids[j], scores[j] = ids[last], scores[last]
		ids, scores = ids[:last], scores[:last]
	}
	return selected
}
