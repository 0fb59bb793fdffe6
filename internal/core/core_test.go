package core

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// reports wraps completed party IDs in the engine's feedback records.
func reports(ids ...int) []fl.PartyReport {
	out := make([]fl.PartyReport, len(ids))
	for i, id := range ids {
		out[i].ID = id
	}
	return out
}

func mustSelector(t *testing.T, clusters [][]int) *Selector {
	t.Helper()
	s, err := NewSelector(clusters)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSelectorValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewSelector(nil); err == nil {
		t.Fatal("expected error for no clusters")
	}
	if _, err := NewSelector([][]int{{}, {}}); err == nil {
		t.Fatal("expected error for all-empty clusters")
	}
	// Ids must be the dense 0..N-1, each in one cluster.
	for _, clusters := range [][][]int{
		{{0, 1}, {1, 2}}, // 1 twice, 3 parties
		{{0, 0}},         // twice in one cluster
		{{0, 4}, {1, 2}}, // 4 outside [0, 4)
		{{-1, 0}},        // negative
		{{0}, {}, {5}},   // sparse
	} {
		if _, err := NewSelector(clusters); err == nil {
			t.Fatalf("NewSelector(%v) accepted ids that are not 0..N-1 once each", clusters)
		}
	}
	if _, err := NewSelector([][]int{{3, 1}, {}, {0, 2}}); err != nil {
		t.Fatalf("dense ids in any order: %v", err)
	}
}

func TestSelectorSkipsEmptyClusters(t *testing.T) {
	t.Parallel()
	s := mustSelector(t, [][]int{{0, 1}, {}, {2}})
	if s.NumClusters() != 2 {
		t.Fatalf("NumClusters = %d, want 2", s.NumClusters())
	}
	if s.NumParties() != 3 {
		t.Fatalf("NumParties = %d, want 3", s.NumParties())
	}
}

func TestSelectUniqueAndSized(t *testing.T) {
	t.Parallel()
	clusters := [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7, 8}, {9}}
	s := mustSelector(t, clusters)
	for round := 0; round < 20; round++ {
		sel := s.Select(round, 4)
		if len(sel) != 4 {
			t.Fatalf("round %d: selected %d parties, want 4", round, len(sel))
		}
		seen := map[int]bool{}
		for _, id := range sel {
			if seen[id] {
				t.Fatalf("round %d: duplicate party %d", round, id)
			}
			seen[id] = true
		}
	}
}

func TestSelectCoversAllClustersWhenTargetMultiple(t *testing.T) {
	t.Parallel()
	// Nr = |C| means exactly one party per cluster per round.
	clusters := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	s := mustSelector(t, clusters)
	clusterOf := map[int]int{}
	for c, members := range clusters {
		for _, p := range members {
			clusterOf[p] = c
		}
	}
	for round := 0; round < 10; round++ {
		sel := s.Select(round, 4)
		counts := make([]int, 4)
		for _, id := range sel {
			counts[clusterOf[id]]++
		}
		for c, n := range counts {
			if n != 1 {
				t.Fatalf("round %d: cluster %d represented %d times", round, c, n)
			}
		}
	}
}

// PickCounts returns party id -> times picked, for the fairness tests.
func (s *Selector) PickCounts() []int { return slices.Clone(s.picks) }

func TestSelectEquitableWithinCluster(t *testing.T) {
	t.Parallel()
	// One cluster of 6 parties, 2 picks per round: over 30 rounds each party
	// must be picked exactly 10 times.
	s := mustSelector(t, [][]int{{0, 1, 2, 3, 4, 5}})
	for round := 0; round < 30; round++ {
		s.Select(round, 2)
	}
	for id, picks := range s.PickCounts() {
		if picks != 10 {
			t.Fatalf("party %d picked %d times, want 10", id, picks)
		}
	}
}

func TestFairnessPickCountsWithinOne(t *testing.T) {
	t.Parallel()
	// Property: after any number of rounds, pick counts of parties within
	// the same cluster differ by at most 1.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		numClusters := 1 + r.Intn(5)
		clusters := make([][]int, numClusters)
		id := 0
		for c := range clusters {
			size := 1 + r.Intn(6)
			for j := 0; j < size; j++ {
				clusters[c] = append(clusters[c], id)
				id++
			}
		}
		s, err := NewSelector(clusters)
		if err != nil {
			return false
		}
		target := 1 + r.Intn(id)
		rounds := 1 + r.Intn(30)
		for round := 0; round < rounds; round++ {
			s.Select(round, target)
		}
		picks := s.PickCounts()
		for _, members := range clusters {
			lo, hi := 1<<30, -1
			for _, p := range members {
				if picks[p] < lo {
					lo = picks[p]
				}
				if picks[p] > hi {
					hi = picks[p]
				}
			}
			if hi-lo > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterRotationWhenFewerPicksThanClusters(t *testing.T) {
	t.Parallel()
	// Nr=1 with 3 clusters: each cluster must be visited once every 3 rounds.
	clusters := [][]int{{0}, {1}, {2}}
	s := mustSelector(t, clusters)
	visits := make([]int, 3)
	for round := 0; round < 9; round++ {
		sel := s.Select(round, 1)
		visits[sel[0]]++
	}
	for c, v := range visits {
		if v != 3 {
			t.Fatalf("cluster %d visited %d times in 9 rounds, want 3", c, v)
		}
	}
}

func TestSelectTargetLargerThanPopulation(t *testing.T) {
	t.Parallel()
	s := mustSelector(t, [][]int{{0, 1}, {2}})
	sel := s.Select(0, 10)
	if len(sel) != 3 {
		t.Fatalf("selected %d parties from population of 3", len(sel))
	}
}

func TestOverprovisionAfterStragglers(t *testing.T) {
	t.Parallel()
	clusters := [][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}}
	s := mustSelector(t, clusters)
	sel := s.Select(0, 4)
	// Report every cluster-0 participant as a straggler.
	fb := fl.RoundFeedback{Round: 0, Selected: sel}
	for _, id := range sel {
		if id <= 5 {
			fb.Stragglers = append(fb.Stragglers, id)
		} else {
			fb.Completed = append(fb.Completed, fl.PartyReport{ID: id})
		}
	}
	if len(fb.Stragglers) == 0 {
		t.Fatal("test setup: no cluster-0 parties selected")
	}
	s.Observe(fb)
	if s.stragRate <= 0 {
		t.Fatal("straggler rate not updated")
	}
	next := s.Select(1, 4)
	if len(next) <= 4 {
		t.Fatalf("expected over-provisioned selection, got %d parties", len(next))
	}
	// The extra parties must come from the straggler-heavy cluster 0 (which
	// still has unselected non-straggler members) and must not themselves be
	// outstanding stragglers.
	extras := next[4:]
	for _, id := range extras {
		if id > 5 {
			t.Fatalf("over-provisioned party %d not from straggler cluster", id)
		}
		for _, st := range fb.Stragglers {
			if id == st {
				t.Fatalf("over-provisioned an outstanding straggler %d", id)
			}
		}
	}
}

func TestOverprovisionFallsBackWhenClusterExhausted(t *testing.T) {
	t.Parallel()
	// Straggler cluster 0 has only stragglers/selected members left, so the
	// extra party must come from another cluster rather than being dropped.
	s := mustSelector(t, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})
	sel := s.Select(0, 4) // two per cluster
	fb := fl.RoundFeedback{Round: 0, Selected: sel}
	for _, id := range sel {
		if id <= 3 {
			fb.Stragglers = append(fb.Stragglers, id)
		} else {
			fb.Completed = append(fb.Completed, fl.PartyReport{ID: id})
		}
	}
	s.Observe(fb)
	next := s.Select(1, 4)
	if len(next) != 5 {
		t.Fatalf("expected 4+1 over-provisioned parties, got %d", len(next))
	}
	extra := next[4]
	if extra <= 3 {
		// Cluster 0's non-straggler members were all selected equitably in
		// this round, so the fallback must have reached cluster 1.
		for _, id := range next[:4] {
			if id == extra {
				t.Fatalf("extra party %d duplicates equitable pick", extra)
			}
		}
	}
}

func TestStragglerClearedOnCompletion(t *testing.T) {
	t.Parallel()
	s := mustSelector(t, [][]int{{0, 1, 2, 3}})
	s.Observe(fl.RoundFeedback{
		Round:      0,
		Selected:   []int{0, 1},
		Completed:  reports(1),
		Stragglers: []int{0},
	})
	if s.stragglers == 0 {
		t.Fatal("straggler flag should be set")
	}
	s.Observe(fl.RoundFeedback{
		Round:     1,
		Selected:  []int{0, 1},
		Completed: reports(0, 1),
	})
	if s.stragglers != 0 {
		t.Fatal("straggler flag should clear when all stragglers complete")
	}
}

func TestHeapOrdering(t *testing.T) {
	t.Parallel()
	h := &pickHeap{picks: []int{0, 0, 1, 2}}
	for _, id := range []int{3, 1, 2, 0} {
		h.push(id)
	}
	want := []int{0, 1, 2, 3} // picks 0(id0), 0(id1), 1, 2
	for _, w := range want {
		if got := h.pop(); got != w {
			t.Fatalf("pop order: got id %d want %d", got, w)
		}
	}
}

// TestStragglerOrder pins the over-provisioning order: clusters by
// outstanding stragglers, most first, ties to the lower id.
func TestStragglerOrder(t *testing.T) {
	t.Parallel()
	s, err := NewSelector([][]int{{0}, {1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	copy(s.stragCount, []int{1, 5, 3, 5})
	if got, want := s.stragglerOrder(), []int{1, 3, 2, 0}; !slices.Equal(got, want) {
		t.Fatalf("straggler order %v, want %v", got, want)
	}
}

// TestHeapPropertyMatchesSort pops random keys in (picks, id) order.
func TestHeapPropertyMatchesSort(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(50)
		h := &pickHeap{picks: make([]int, n)}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		r.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids {
			h.picks[id] = r.Intn(10)
			h.push(id)
		}
		prevPicks, prevID := -1, -1
		for len(h.ids) > 0 {
			id := h.pop()
			if p := h.picks[id]; p < prevPicks || p == prevPicks && id < prevID {
				return false
			}
			prevPicks, prevID = h.picks[id], id
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterLabelDistributions(t *testing.T) {
	t.Parallel()
	// Three obvious groups of label distributions.
	var lds []tensor.Vec
	groups := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	r := rng.New(5)
	for g := 0; g < 3; g++ {
		for i := 0; i < 10; i++ {
			ld := tensor.NewVec(3)
			for j := range ld {
				ld[j] = groups[g][j]*100 + 2*r.Float64()
			}
			lds = append(lds, ld)
		}
	}
	clusters, err := ClusterLabelDistributions(lds, 10, 5, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) < 2 || len(clusters) > 4 {
		t.Fatalf("found %d clusters, want ~3", len(clusters))
	}
	// Every party appears exactly once.
	seen := map[int]bool{}
	total := 0
	for _, c := range clusters {
		if !sort.IntsAreSorted(c) {
			t.Fatal("cluster members not sorted")
		}
		for _, p := range c {
			if seen[p] {
				t.Fatalf("party %d in multiple clusters", p)
			}
			seen[p] = true
			total++
		}
	}
	if total != len(lds) {
		t.Fatalf("clustered %d of %d parties", total, len(lds))
	}
	if _, err := ClusterLabelDistributions(nil, 10, 5, rng.New(7)); err == nil {
		t.Fatal("clustered no label distributions")
	}
}

func TestSelectDeterministic(t *testing.T) {
	t.Parallel()
	build := func() *Selector {
		s, _ := NewSelector([][]int{{0, 1, 2}, {3, 4}, {5, 6, 7}})
		return s
	}
	a, b := build(), build()
	for round := 0; round < 10; round++ {
		sa, sb := a.Select(round, 3), b.Select(round, 3)
		if len(sa) != len(sb) {
			t.Fatal("selection sizes diverge")
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("round %d: selections diverge", round)
			}
		}
	}
}

func TestClusterCoverageWindowProperty(t *testing.T) {
	t.Parallel()
	// DESIGN.md invariant: when Nr < |C|, every cluster is selected within
	// any window of ceil(|C|/Nr) consecutive rounds.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		numClusters := 2 + r.Intn(6)
		clusters := make([][]int, numClusters)
		id := 0
		for c := range clusters {
			for j := 0; j < 1+r.Intn(4); j++ {
				clusters[c] = append(clusters[c], id)
				id++
			}
		}
		s, err := NewSelector(clusters)
		if err != nil {
			return false
		}
		clusterOf := map[int]int{}
		for c, members := range clusters {
			for _, p := range members {
				clusterOf[p] = c
			}
		}
		target := 1 + r.Intn(numClusters-1) // Nr < |C|
		window := (numClusters + target - 1) / target
		const rounds = 30
		visited := make([][]bool, rounds)
		for round := 0; round < rounds; round++ {
			visited[round] = make([]bool, numClusters)
			for _, p := range s.Select(round, target) {
				visited[round][clusterOf[p]] = true
			}
		}
		for start := 0; start+window <= rounds; start++ {
			for c := 0; c < numClusters; c++ {
				seen := false
				for w := 0; w < window; w++ {
					if visited[start+w][c] {
						seen = true
						break
					}
				}
				if !seen {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
