// Package core implements the paper's primary contribution: the FLIPS
// participant selector (Algorithm 1). Given clusters of parties with similar
// label distributions, FLIPS selects each round's participants round-robin
// across clusters — extracting the least-picked cluster, then the
// least-picked party within it — so every unique label distribution is
// equitably represented and every party gets a fair opportunity. When
// stragglers appear, FLIPS over-provisions subsequent rounds with extra
// parties drawn from the clusters the stragglers belonged to, preserving
// label representation (Algorithm 1 lines 27–31, 45).
package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"flips/internal/cluster"
	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// Selector is the FLIPS participant-selection strategy. Parties are the
// engine's dense ids 0..N-1, and every per-party table is a slice indexed by
// them.
type Selector struct {
	clusterOf  []int      // party id -> cluster id
	picks      []int      // party id -> times picked: H's key
	visits     []int      // cluster id -> times extracted: Hc's key
	clusterHp  pickHeap   // Hc: clusters by fewest picks
	partyHp    []pickHeap // H[c]: each cluster's parties by fewest picks
	stragCount []int      // H^r_sc: outstanding stragglers per cluster
	straggler  []bool     // H^r_s: currently-outstanding stragglers
	stragglers int        // |H^r_s|; Algorithm 1's Stragglers flag is > 0
	stragRate  float64    // strg: smoothed straggler rate

	// Select's scratch, reused: the parties picked this round, and the
	// members it has popped off their clusters' heaps. A popped member is
	// either picked or passed over because it is in the round (or, for an
	// over-provisioned pick, straggling), and stays so for the rest of the
	// Select: it is parked instead of pushed back, and every parked member
	// goes back at the end. pickHeap's order is strict, so a heap pops what
	// it would have popped with them in it, less the members no pick could
	// take — a cluster the round has drained is an empty heap, not a full one
	// popped through on each of its turns — and the Select is linear in its
	// cohort.
	inRound []bool
	parked  []int
}

var _ fl.Selector = (*Selector)(nil)

// NewSelector builds the FLIPS selector from party clusters (one slice of
// party ids per cluster). Across the clusters the ids must be 0..N-1, each
// once, for N parties in all.
func NewSelector(clusters [][]int) (*Selector, error) {
	n := 0
	for _, members := range clusters {
		n += len(members)
	}
	if n == 0 {
		return nil, fmt.Errorf("core: every cluster is empty")
	}
	s := &Selector{
		clusterOf: make([]int, n),
		picks:     make([]int, n),
		straggler: make([]bool, n),
		inRound:   make([]bool, n),
	}
	for p := range s.clusterOf {
		s.clusterOf[p] = -1
	}
	for _, members := range clusters {
		if len(members) == 0 {
			continue
		}
		for _, p := range members {
			if p < 0 || p >= n {
				return nil, fmt.Errorf("core: party %d outside [0, %d)", p, n)
			}
			if s.clusterOf[p] >= 0 {
				return nil, fmt.Errorf("core: party %d appears in multiple clusters", p)
			}
			s.clusterOf[p] = len(s.partyHp)
		}
		ids := slices.Clone(members)
		slices.Sort(ids) // every key is 0, so ascending ids are a heap
		s.partyHp = append(s.partyHp, pickHeap{ids: ids, picks: s.picks})
	}
	s.visits = make([]int, len(s.partyHp))
	s.clusterHp = pickHeap{ids: make([]int, len(s.partyHp)), picks: s.visits}
	for c := range s.clusterHp.ids {
		s.clusterHp.ids[c] = c
	}
	s.stragCount = make([]int, len(s.partyHp))
	return s, nil
}

// NumClusters returns the number of non-empty clusters |C|.
func (s *Selector) NumClusters() int { return len(s.partyHp) }

// NumParties returns the total party count.
func (s *Selector) NumParties() int { return len(s.picks) }

// Name implements fl.Selector.
func (s *Selector) Name() string { return "flips" }

// Select implements fl.Selector: Nr parties chosen round-robin across the
// least-picked clusters, plus strg*Nr over-provisioned parties from the
// straggliest clusters while stragglers are outstanding.
func (s *Selector) Select(_, target int) []int {
	target = min(target, s.NumParties())
	selected := s.pickEquitable(make([]int, 0, target), target)

	// Over-provisioning (Algorithm 1 lines 27–31): while stragglers are
	// outstanding, add int(strg*Nr) parties from the clusters with the most
	// stragglers, skipping known-straggler parties.
	if s.stragglers > 0 {
		extra := int(s.stragRate * float64(target))
		var order []int
		if extra > 0 {
			order = s.stragglerOrder()
		}
		for i := 0; i < extra && len(selected) < s.NumParties(); i++ {
			p, ok := s.overprovisionPick(order)
			if !ok {
				break
			}
			selected = s.take(selected, p)
		}
	}
	for _, p := range s.parked {
		s.partyHp[s.clusterOf[p]].push(p)
	}
	for _, p := range selected {
		s.inRound[p] = false
	}
	s.parked = s.parked[:0]
	return selected
}

func (s *Selector) take(selected []int, p int) []int {
	s.inRound[p] = true
	return append(selected, p)
}

// stragglerOrder lists the cluster ids by outstanding stragglers, most
// first, ties to the lower id. The counts change only in Observe, so one
// order serves every over-provisioned pick of a Select.
func (s *Selector) stragglerOrder() []int {
	order := make([]int, len(s.partyHp))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(s.stragCount[b], s.stragCount[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// overprovisionPick chooses one extra non-straggler party, preferring the
// clusters with the most outstanding stragglers (Algorithm 1 line 29) and
// falling back through clusters in that order when the top cluster has no
// available member.
func (s *Selector) overprovisionPick(order []int) (int, bool) {
	for _, c := range order {
		if p, ok := s.pickFromCluster(c, true); ok {
			return p, true
		}
	}
	return 0, false
}

// pickEquitable performs the core round-robin: extract the least-picked
// cluster, then the least-picked unused party within it, until n are picked.
func (s *Selector) pickEquitable(selected []int, n int) []int {
	for len(selected) < n {
		// Extract-min cluster; retry clusters whose parties are all in
		// the round already.
		tried := 0
		for ; tried < len(s.partyHp); tried++ {
			c := s.clusterHp.pop()
			p, ok := s.pickFromCluster(c, false)
			s.visits[c]++
			s.clusterHp.push(c)
			if ok {
				selected = s.take(selected, p)
				break
			}
		}
		if tried == len(s.partyHp) {
			break // every party is already selected
		}
	}
	return selected
}

// pickFromCluster extracts the least-picked party of cluster c that is not
// yet in the round (and, when skipStragglers, not an outstanding straggler)
// and increments its pick count. Every member it pops — the chosen one and
// those it passes over — is parked for the rest of the round.
func (s *Selector) pickFromCluster(c int, skipStragglers bool) (int, bool) {
	h := &s.partyHp[c]
	for len(h.ids) > 0 {
		p := h.pop()
		s.parked = append(s.parked, p)
		if s.inRound[p] || (skipStragglers && s.straggler[p]) {
			continue
		}
		s.picks[p]++
		return p, true
	}
	return 0, false
}

// Observe implements fl.Selector: Algorithm 1 lines 33–45. Stragglers are
// recorded with their clusters; parties that later complete are cleared; the
// smoothed straggler rate strg drives future over-provisioning.
func (s *Selector) Observe(fb fl.RoundFeedback) {
	for _, id := range fb.Stragglers {
		if s.straggler[id] {
			continue
		}
		s.straggler[id] = true
		s.stragglers++
		s.stragCount[s.clusterOf[id]]++
	}
	for _, r := range fb.Completed {
		if !s.straggler[r.ID] {
			continue
		}
		s.straggler[r.ID] = false
		s.stragglers--
		s.stragCount[s.clusterOf[r.ID]]--
	}

	// Smoothed straggler-rate estimate. Algorithm 1 line 45 writes
	// strg = (strg*Nr + count)/Nr, which diverges as stated; we read it as
	// the intended running average and use an EWMA with factor 1/2.
	if len(fb.Selected) > 0 {
		rate := float64(len(fb.Stragglers)) / float64(len(fb.Selected))
		s.stragRate = float64(0.5*s.stragRate) + float64(0.5*rate)
	}
}

// DefaultMaxK is the Davies-Bouldin sweep bound when none is configured: a
// quarter of the parties, at least three (every party of a smaller fleet).
func DefaultMaxK(parties int) int {
	if k := parties / 4; k >= 3 {
		return k
	}
	return min(3, parties)
}

// ClusterLabelDistributions builds the FLIPS clustering (paper §3.1): it
// finds the optimal k on the Davies-Bouldin elbow and K-Means-partitions the
// normalized label distributions, returning per-cluster party-ID lists. It is
// ClusterLabelDistributionsContext with a context that is never done.
func ClusterLabelDistributions(lds []tensor.Vec, maxK, repeats int, r *rng.Source) ([][]int, error) {
	return ClusterLabelDistributionsContext(context.Background(), lds, maxK, repeats, r)
}

// ClusterLabelDistributionsContext is ClusterLabelDistributions stopped by
// ctx: the Davies-Bouldin sweep checks it before each K-Means fit and returns
// its error once it is done.
func ClusterLabelDistributionsContext(ctx context.Context, lds []tensor.Vec, maxK, repeats int, r *rng.Source) ([][]int, error) {
	if len(lds) == 0 {
		return nil, fmt.Errorf("core: no label distributions")
	}
	points := normalized(lds)
	if maxK <= 0 {
		maxK = points.Rows
	}
	if repeats <= 0 {
		repeats = 20 // the paper's T=20
	}
	res, _, err := cluster.OptimalK(ctx, points, maxK, repeats, r.Split(1), r.Split(2))
	if err != nil {
		return nil, err
	}
	return nonEmptyClusters(res), nil
}

// normalized returns the label distributions' proportions, one row per
// party. Each row is a copy; the distributions are left as they are.
func normalized(lds []tensor.Vec) *tensor.Mat {
	points := tensor.MatFromRows(lds)
	for i := 0; i < points.Rows; i++ {
		points.Row(i).Normalize()
	}
	return points
}

// nonEmptyClusters returns a K-Means result's non-empty clusters, members in
// ascending order.
func nonEmptyClusters(res *cluster.KMeansResult) [][]int {
	cs := res.Clusters()
	out := make([][]int, 0, len(cs))
	for _, c := range cs {
		if len(c) > 0 {
			sort.Ints(c)
			out = append(out, c)
		}
	}
	return out
}
