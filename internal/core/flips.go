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
	"fmt"
	"sort"

	"flips/internal/cluster"
	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// Selector is the FLIPS participant-selection strategy.
type Selector struct {
	clusters  [][]int // cluster id -> member party ids
	partyOf   map[int]int
	clusterHp *pickHeap         // Hc: clusters by fewest picks
	partyHp   map[int]*pickHeap // H[c]: parties by fewest picks
	partyItem map[int]*pickItem // party id -> its heap item
	clItem    map[int]*pickItem // cluster id -> its heap item
	stragHp   *pickHeap         // H^r_sc: clusters by most stragglers
	stragItem map[int]*pickItem // cluster id -> straggler-count item
	straggler map[int]bool      // H^r_s: currently-outstanding stragglers
	stragRate float64           // strg: smoothed straggler rate
	active    bool              // Stragglers flag of Algorithm 1

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
		clusterHp: newPickHeap(false),
		partyHp:   make(map[int]*pickHeap, len(clusters)),
		partyItem: make(map[int]*pickItem),
		clItem:    make(map[int]*pickItem, len(clusters)),
		stragHp:   newPickHeap(true),
		stragItem: make(map[int]*pickItem, len(clusters)),
		straggler: make(map[int]bool),
	}
	total := 0
	for cid, members := range clusters {
		if len(members) == 0 {
			continue
		}
		id := len(s.clusters)
		s.clusters = append(s.clusters, append([]int(nil), members...))
		ph := newPickHeap(false)
		for _, p := range members {
			if _, dup := s.partyOf[p]; dup {
				return nil, fmt.Errorf("core: party %d appears in multiple clusters", p)
			}
			s.partyOf[p] = id
			item := &pickItem{id: p}
			s.partyItem[p] = item
			ph.push(item)
			total++
		}
		s.partyHp[id] = ph
		ci := &pickItem{id: id}
		s.clItem[id] = ci
		s.clusterHp.push(ci)
		si := &pickItem{id: id}
		s.stragItem[id] = si
		s.stragHp.push(si)
		_ = cid
	}
	if total == 0 {
		return nil, fmt.Errorf("core: no parties in any cluster")
	}
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
		for i := 0; i < extra && len(selected) < s.NumParties(); i++ {
			if p, ok := s.overprovisionPick(inRound); ok {
				inRound[p] = true
				selected = append(selected, p)
			} else {
				break
			}
		}
	}
	return selected
}

// overprovisionPick chooses one extra non-straggler party, preferring the
// clusters with the most outstanding stragglers (Algorithm 1 line 29) and
// falling back through clusters in descending straggler order when the top
// cluster has no available member.
func (s *Selector) overprovisionPick(inRound map[int]bool) (int, bool) {
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
	order := make([]*pickItem, len(s.stragHp.items))
	copy(order, s.stragHp.items)
	sort.Slice(order, func(a, b int) bool {
		if order[a].picks != order[b].picks {
			return order[a].picks > order[b].picks
		}
		return order[a].id < order[b].id
	})
	for _, ci := range order {
		if p, ok := s.pickFromCluster(ci.id, inRound, true); ok {
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
		if item, ok := s.stragItem[s.partyOf[id]]; ok {
			item.picks++
			s.stragHp.fix(item)
		}
	}
	for _, id := range fb.Completed {
		if !s.straggler[id] {
			continue
		}
		delete(s.straggler, id)
		if item, ok := s.stragItem[s.partyOf[id]]; ok && item.picks > 0 {
			item.picks--
			s.stragHp.fix(item)
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
// quarter of the parties, at least 2.
func DefaultMaxK(parties int) int { return max(parties/4, 2) }

// ClusterLabelDistributions builds the FLIPS clustering (paper §3.1): it
// finds the optimal k on the Davies-Bouldin elbow and K-Means-partitions the
// normalized label distributions, returning per-cluster party-ID lists.
func ClusterLabelDistributions(lds []tensor.Vec, maxK, repeats int, r *rng.Source) ([][]int, error) {
	if len(lds) == 0 {
		return nil, fmt.Errorf("core: no label distributions")
	}
	points := make([]tensor.Vec, len(lds))
	for i, ld := range lds {
		points[i] = ld.Clone().Normalize()
	}
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
	res, err := cluster.KMeans(points, k, r.Split(2), cluster.KMeansOptions{})
	if err != nil {
		return nil, err
	}
	return nonEmptyClusters(res.Clusters()), nil
}

// ClusterWithK is ClusterLabelDistributions with a fixed k (for ablations).
func ClusterWithK(lds []tensor.Vec, k int, r *rng.Source) ([][]int, error) {
	points := make([]tensor.Vec, len(lds))
	for i, ld := range lds {
		points[i] = ld.Clone().Normalize()
	}
	res, err := cluster.KMeans(points, k, r, cluster.KMeansOptions{})
	if err != nil {
		return nil, err
	}
	return nonEmptyClusters(res.Clusters()), nil
}

func nonEmptyClusters(cs [][]int) [][]int {
	out := make([][]int, 0, len(cs))
	for _, c := range cs {
		if len(c) > 0 {
			sort.Ints(c)
			out = append(out, c)
		}
	}
	return out
}
