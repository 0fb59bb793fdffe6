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
	// and reused across rounds, and draw's running prefix of their positive
	// scores.
	candIDs    []int
	candScores []float64
	candPrefix []float64
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
// the pick is uniform over the whole band and a zeroed entry could be picked
// twice. The band itself keeps its length.
//
// Each pick is exactly rng.Categorical over the remaining scores, RNG draws
// included. Categorical adds the positive scores in index order from +0 to a
// total (one Intn over the band if it is 0), draws u = Float64()·total, and
// returns the first index whose running sum exceeds u, or the last index if
// none does. Its running sum skips the non-positive scores but not a NaN,
// which turns it NaN for good: no index from the first NaN on can match.
// draw keeps the running sum of the positive scores for every index in
// candPrefix, its last entry the total, and the first NaN's index in nan:
// a pick is a binary search below nan, and a swap-removal re-sums only from
// the removed slot onward, the same additions in the same order. A running
// sum that reaches +Inf stays there, so u (+Inf, or NaN for 0·Inf) finds no
// index above it and the pick is the last index, as in Categorical.
func (t *triedSet) draw(selected []int, n int, r *rng.Source) []int {
	ids, scores := t.candIDs, t.candScores
	if cap(t.candPrefix) < len(scores) {
		t.candPrefix = make([]float64, len(scores), cap(scores)) // grows when the band's scores did
	}
	prefix := t.candPrefix[:len(scores)]
	nan := runningSum(prefix, scores, 0)
	for i := 0; i < n && len(ids) > 0; i++ {
		last := len(ids) - 1
		j := last
		if total := prefix[last]; total == 0 {
			j = r.Intn(len(ids))
		} else {
			u := r.Float64() * total
			lo, hi := 0, nan
			for lo < hi { // the first index below nan whose running sum exceeds u
				mid := int(uint(lo+hi) >> 1)
				if prefix[mid] > u {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			if lo < nan {
				j = lo
			}
		}
		selected = append(selected, ids[j])
		ids[j], scores[j] = ids[last], scores[last]
		ids, scores, prefix = ids[:last], scores[:last], prefix[:last]
		if f := runningSum(prefix, scores, j); nan >= j {
			nan = f
		}
	}
	return selected
}

// runningSum sets prefix[i], for i from `from` on, to the running sum of the
// positive scores up to and including i, continuing from prefix[from-1] (from
// +0 at the start) — the chain rng.Categorical adds for its total — and
// returns the index of the first NaN score from `from` on, or len(scores).
func runningSum(prefix, scores []float64, from int) (nan int) {
	nan = len(scores)
	prefix = prefix[:len(scores)]
	var acc float64
	if from > 0 {
		acc = prefix[from-1]
	}
	for i := from; i < len(scores); i++ {
		if w := scores[i]; w > 0 {
			acc += w
		} else if w != w {
			nan = min(nan, i)
		}
		prefix[i] = acc
	}
	return nan
}
