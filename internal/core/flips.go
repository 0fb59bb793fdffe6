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
	"fmt"
	"slices"
	"sort"

	"flips/internal/cluster"
	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// Selector is the FLIPS participant-selection strategy.
type Selector struct {
	clusters   [][]int // cluster id -> member party ids
	partyOf    map[int]int
	clusterHp  *pickHeap         // Hc: clusters by fewest picks
	partyHp    []*pickHeap       // H[c]: each cluster's parties by fewest picks
	partyItem  map[int]*pickItem // party id -> its heap item
	stragCount []int             // H^r_sc: outstanding stragglers per cluster
	straggler  map[int]bool      // H^r_s: currently-outstanding stragglers
	stragRate  float64           // strg: smoothed straggler rate
	active     bool              // Stragglers flag of Algorithm 1

	// randomOverprovision is an ablation switch: when set, over-provisioned
	// parties are drawn equitably from all clusters instead of from the
	// straggler-heavy clusters (Algorithm 1 line 29). Benchmarks use it to
	// isolate the value of cluster-aware replacement.
	randomOverprovision bool
	opRng               *rng.Source
}

// SetRandomOverprovision toggles the ablation mode that replaces straggler-
// cluster-aware over-provisioning with uniform random replacement. r seeds
// the random draws (required when enable is true).
func (s *Selector) SetRandomOverprovision(enable bool, r *rng.Source) {
	s.randomOverprovision = enable
	s.opRng = r
}

var _ fl.Selector = (*Selector)(nil)

// NewSelector builds the FLIPS selector from party clusters (one slice of
// party IDs per cluster). Party IDs must be unique across clusters.
func NewSelector(clusters [][]int) (*Selector, error) {
	s := &Selector{
		clusters:  make([][]int, 0, len(clusters)),
		partyOf:   make(map[int]int),
		clusterHp: &pickHeap{},
		partyItem: make(map[int]*pickItem),
		straggler: make(map[int]bool),
	}
	for _, members := range clusters {
		if len(members) == 0 {
			continue
		}
		id := len(s.clusters)
		s.clusters = append(s.clusters, append([]int(nil), members...))
		ph := &pickHeap{}
		for _, p := range members {
			if _, dup := s.partyOf[p]; dup {
				return nil, fmt.Errorf("core: party %d appears in multiple clusters", p)
			}
			s.partyOf[p] = id
			item := &pickItem{id: p}
			s.partyItem[p] = item
			ph.push(item)
		}
		s.partyHp = append(s.partyHp, ph)
		s.clusterHp.push(&pickItem{id: id})
	}
	if len(s.clusters) == 0 {
		return nil, fmt.Errorf("core: no parties in any cluster")
	}
	s.stragCount = make([]int, len(s.clusters))
	return s, nil
}

// NumClusters returns the number of non-empty clusters |C|.
func (s *Selector) NumClusters() int { return len(s.clusters) }

// NumParties returns the total party count.
func (s *Selector) NumParties() int { return len(s.partyOf) }

// Name implements fl.Selector.
func (s *Selector) Name() string { return "flips" }

// Select implements fl.Selector: Nr parties chosen round-robin across the
// least-picked clusters, plus strg*Nr over-provisioned parties from the
// straggliest clusters while stragglers are outstanding.
func (s *Selector) Select(_, target int) []int {
	if target > s.NumParties() {
		target = s.NumParties()
	}
	selected := make([]int, 0, target)
	inRound := make(map[int]bool, target)

	s.pickEquitable(target, inRound, &selected)

	// Over-provisioning (Algorithm 1 lines 27–31): while stragglers are
	// outstanding, add int(strg*Nr) parties from the clusters with the most
	// stragglers, skipping known-straggler parties.
	if s.active {
		extra := int(s.stragRate * float64(target))
		var order []int
		if extra > 0 && !s.randomOverprovision {
			order = s.stragglerOrder()
		}
		for i := 0; i < extra && len(selected) < s.NumParties(); i++ {
			if p, ok := s.overprovisionPick(inRound, order); ok {
				inRound[p] = true
				selected = append(selected, p)
			} else {
				break
			}
		}
	}
	return selected
}

// stragglerOrder lists the cluster ids by outstanding stragglers, most
// first, ties to the lower id. The counts change only in Observe, so one
// order serves every over-provisioned pick of a Select.
func (s *Selector) stragglerOrder() []int {
	order := make([]int, len(s.clusters))
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
func (s *Selector) overprovisionPick(inRound map[int]bool, order []int) (int, bool) {
	if s.randomOverprovision && s.opRng != nil {
		// Ablation mode: uniform over all available non-straggler parties.
		candidates := make([]int, 0, len(s.partyOf))
		for id := range s.partyOf {
			if !inRound[id] && !s.straggler[id] {
				candidates = append(candidates, id)
			}
		}
		if len(candidates) == 0 {
			return 0, false
		}
		sort.Ints(candidates) // deterministic order before the random draw
		pick := candidates[s.opRng.Intn(len(candidates))]
		s.partyItem[pick].picks++
		s.partyHp[s.partyOf[pick]].fix(s.partyItem[pick])
		return pick, true
	}
	for _, cid := range order {
		if p, ok := s.pickFromCluster(cid, inRound, true); ok {
			return p, true
		}
	}
	return 0, false
}

// pickEquitable performs the core round-robin: extract the least-picked
// cluster, then the least-picked unused party within it.
func (s *Selector) pickEquitable(n int, inRound map[int]bool, out *[]int) {
	for len(*out) < n {
		// Extract-min cluster; retry clusters whose parties are all in
		// the round already.
		tried := 0
		for ; tried < len(s.clusters); tried++ {
			ci := s.clusterHp.pop()
			p, ok := s.pickFromCluster(ci.id, inRound, false)
			ci.picks++
			s.clusterHp.push(ci)
			if ok {
				inRound[p] = true
				*out = append(*out, p)
				break
			}
		}
		if tried == len(s.clusters) {
			return // every party is already selected
		}
	}
}

// pickFromCluster extracts the least-picked party of cluster cid that is not
// yet in the round (and, when skipStragglers, not an outstanding straggler).
// It increments the party's pick count on success.
func (s *Selector) pickFromCluster(cid int, inRound map[int]bool, skipStragglers bool) (int, bool) {
	ph := s.partyHp[cid]
	popped := make([]*pickItem, 0, 4)
	var chosen *pickItem
	for ph.Len() > 0 {
		item := ph.pop()
		popped = append(popped, item)
		if inRound[item.id] {
			continue
		}
		if skipStragglers && s.straggler[item.id] {
			continue
		}
		chosen = item
		break
	}
	for _, item := range popped {
		if item == chosen {
			item.picks++
		}
		ph.push(item)
	}
	if chosen == nil {
		return 0, false
	}
	return chosen.id, true
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
		s.stragCount[s.partyOf[id]]++
	}
	for _, r := range fb.Completed {
		if !s.straggler[r.ID] {
			continue
		}
		delete(s.straggler, r.ID)
		if c := s.partyOf[r.ID]; s.stragCount[c] > 0 {
			s.stragCount[c]--
		}
	}
	s.active = len(s.straggler) > 0

	// Smoothed straggler-rate estimate. Algorithm 1 line 45 writes
	// strg = (strg*Nr + count)/Nr, which diverges as stated; we read it as
	// the intended running average and use an EWMA with factor 1/2.
	if len(fb.Selected) > 0 {
		rate := float64(len(fb.Stragglers)) / float64(len(fb.Selected))
		s.stragRate = 0.5*s.stragRate + 0.5*rate
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
// normalized label distributions, returning per-cluster party-ID lists.
func ClusterLabelDistributions(lds []tensor.Vec, maxK, repeats int, r *rng.Source) ([][]int, error) {
	if len(lds) == 0 {
		return nil, fmt.Errorf("core: no label distributions")
	}
	points := normalized(lds)
	if maxK <= 0 {
		maxK = len(points)
	}
	if repeats <= 0 {
		repeats = 20 // the paper's T=20
	}
	k, _, err := cluster.OptimalK(points, maxK, repeats, r.Split(1))
	if err != nil {
		return nil, err
	}
	return kMeansClusters(points, k, r.Split(2))
}

// ClusterWithK is ClusterLabelDistributions with a fixed k (for ablations).
func ClusterWithK(lds []tensor.Vec, k int, r *rng.Source) ([][]int, error) {
	return kMeansClusters(normalized(lds), k, r)
}

// normalized returns label-proportion copies of the label distributions.
func normalized(lds []tensor.Vec) []tensor.Vec {
	points := make([]tensor.Vec, len(lds))
	for i, ld := range lds {
		points[i] = ld.Clone().Normalize()
	}
	return points
}

// kMeansClusters K-Means-partitions the points into k clusters and returns
// the non-empty ones, members in ascending order.
func kMeansClusters(points []tensor.Vec, k int, r *rng.Source) ([][]int, error) {
	res, err := cluster.KMeans(points, k, r, cluster.KMeansOptions{})
	if err != nil {
		return nil, err
	}
	cs := res.Clusters()
	out := make([][]int, 0, len(cs))
	for _, c := range cs {
		if len(c) > 0 {
			sort.Ints(c)
			out = append(out, c)
		}
	}
	return out, nil
}
