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
	// and reused across rounds, and draw's sum tree over their positive
	// parts, its nodes reused likewise.
	candIDs    []int
	candScores []float64
	candTree   sumTree
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
// its layout: the top max(candidatePool, 2·request) tried parties, or all of
// them while there are fewer. The heap keeps its band sorted between reads
// and patches it on every re-key, so a read is O(k).
func (t *triedSet) readBand(request int) {
	k := min(max(candidatePool, 2*request), t.nTried)
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
// included: Categorical adds the positive scores in index order from +0 (its
// chain), draws one Intn over the band if the sum is 0, and otherwise
// returns the first index whose running sum exceeds u = Float64()·total.
// draw keeps a sum tree over the scores' positive parts, whose total is 0
// exactly when the chain's is, and makes each other pick from the same
// Float64 in O(log k) (sumTree.pick): a descent to the leaf the tree's prefix
// puts the draw in, taken when a rounding bound proves that Categorical's
// chain puts it there too, and the chain itself (rng.CategoricalAt)
// otherwise. A swap-removal
// moves the last leaf into the picked slot and re-sums both leaves' paths.
func (t *triedSet) draw(selected []int, n int, r *rng.Source) []int {
	ids, scores, tree := t.candIDs, t.candScores, &t.candTree
	tree.reset(scores)
	for i := 0; i < n && len(ids) > 0; i++ {
		last := len(ids) - 1
		var j int
		if tree.node[1] == 0 {
			j = r.Intn(len(ids))
		} else {
			j = tree.pick(scores, r.Float64())
		}
		selected = append(selected, ids[j])
		ids[j], scores[j] = ids[last], scores[last]
		ids, scores = ids[:last], scores[:last]
		tree.remove(j, last)
	}
	return selected
}

// Rounding guards of the certified pick (DESIGN.md, "Certified band draw"):
// a tree total outside [drawFloor, drawCeil] is drawn by the chain, so no
// product the certificate forms can underflow or overflow.
const (
	drawFloor = 0x1p-900
	drawCeil  = 0x1p1000
)

// sumTree is a flat binary tree over a band's scores: leaf i, node[size+i],
// is score i's positive part (+0 for every other score, and past the band),
// and every parent node[p] is node[2p] + node[2p+1], so node[1] is the total.
type sumTree struct {
	node []float64
	size int
	// e bounds the relative rounding error between the tree's and the
	// chain's sums and products (DESIGN.md, "Certified band draw"); finite
	// is false once the band holds a NaN or ±Inf, which the chain poisons
	// or saturates on, and then every pick is the chain's.
	e      float64
	finite bool
}

// reset lays the tree out over scores, reusing its nodes.
func (t *sumTree) reset(scores []float64) {
	size, depth := 1, 0
	for size < len(scores) {
		size, depth = 2*size, depth+1
	}
	if cap(t.node) < 2*size {
		t.node = make([]float64, 2*size)
	}
	t.node, t.size = t.node[:2*size], size
	var nonFinite uint64 // the bits of w − w: +0 for a finite w, NaN otherwise
	leaves := t.node[size : size+len(scores)]
	for i, w := range scores {
		nonFinite |= math.Float64bits(w - w)
		if !(w > 0) {
			w = 0
		}
		leaves[i] = w
	}
	clear(t.node[size+len(scores):])
	for width := size / 2; width > 0; width /= 2 {
		parents, kids := t.node[width:2*width], t.node[2*width:4*width]
		for p := range parents {
			parents[p] = kids[2*p] + kids[2*p+1]
		}
	}
	t.finite = nonFinite == 0
	// The bound needs e >= γ_K for K = len(scores) + 2·depth + 2 roundings
	// (the chain's adds, a tree prefix's, the products'); 2^-52 per rounding
	// is twice the unit roundoff, which covers γ_K, and 3 more are spare.
	// 1 ± e is exact.
	t.e = float64(len(scores)+2*depth+5) * 0x1p-52
}

// pick returns the index rng.Categorical picks from scores, the band the
// tree holds, with the uniform draw f, when some score is positive. The
// descent finds the leaf j whose prefix interval [acc, acc + leaf) holds
// v = f·total in the tree's sums; j is certified, and returned, when v
// clears both ends by the bound e (t.certifies), so that u = f·total in the
// chain's sums lies between the chain's running sums before and through j.
// Otherwise the chain itself decides.
func (t *sumTree) pick(scores []float64, f float64) int {
	if total := t.node[1]; t.finite && total >= drawFloor && total <= drawCeil {
		v := f * total
		if leaf, acc := t.descend(v); t.certifies(leaf, acc, v) {
			return leaf - t.size
		}
	}
	return rng.CategoricalAt(scores, f)
}

// certifies reports whether v clears both ends of leaf's prefix interval,
// [acc, acc + leaf), by the bound e.
func (t *sumTree) certifies(leaf int, acc, v float64) bool {
	lo, hi := 1-t.e, 1+t.e
	return acc*hi < v*lo && (acc+t.node[leaf])*lo > v*hi
}

// descend walks the tree from the root to the leaf where the running prefix
// of the leaves first exceeds v, and returns the leaf's node and the prefix
// before it: at each level the prefix plus the left child's sum, s, decides
// the side, and going right makes s the prefix. It runs on a tree of finite
// sums and a v >= +0, where comparing two values' bits as integers orders
// them as floats, so the side is taken from an integer compare and the
// prefix moves as its bits by a conditional move: no branch, which a random
// v would mispredict at half the levels, and no float compare in the chain
// from one level to the next.
func (t *sumTree) descend(v float64) (leaf int, acc float64) {
	node, size := t.node, t.size
	vBits := math.Float64bits(v)
	var accBits uint64
	leaf = 1
	for leaf < size {
		leaf *= 2
		sBits := math.Float64bits(math.Float64frombits(accBits) + node[leaf])
		right := 0
		if vBits >= sBits {
			right = 1
		}
		if right != 0 {
			accBits = sBits
		}
		leaf += right
	}
	return leaf, math.Float64frombits(accBits)
}

// remove mirrors a swap-removal of score j by the band's last score: leaf
// last moves into leaf j, +0 takes its place, and the parents of both are
// re-summed — both paths a level at a time, then their shared path from
// where they meet. Each new sum is carried up in a register and added to
// its sibling, which equals the left + right sum because every node is +0,
// positive or +Inf, where addition commutes bit for bit.
func (t *sumTree) remove(j, last int) {
	node := t.node
	a, b := t.size+j, t.size+last
	node[a], node[b] = node[b], 0
	va, vb := node[a], node[b]
	for a/2 != b/2 {
		va, vb = va+node[a^1], vb+node[b^1]
		a, b = a/2, b/2
		node[a], node[b] = va, vb
	}
	if a != b {
		va += vb
		a /= 2
		node[a] = va
	}
	for a > 1 {
		va += node[a^1]
		a /= 2
		node[a] = va
	}
}
