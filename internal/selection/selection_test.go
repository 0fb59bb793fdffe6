package selection

import (
	"testing"
	"testing/quick"

	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

func assertUniqueInRange(t *testing.T, sel []int, n int) {
	t.Helper()
	seen := map[int]bool{}
	for _, id := range sel {
		if id < 0 || id >= n {
			t.Fatalf("party %d out of range [0,%d)", id, n)
		}
		if seen[id] {
			t.Fatalf("duplicate party %d", id)
		}
		seen[id] = true
	}
}

func TestRandomSelect(t *testing.T) {
	t.Parallel()
	s := NewRandom(50, rng.New(1))
	for round := 0; round < 10; round++ {
		sel := s.Select(round, 10)
		if len(sel) != 10 {
			t.Fatalf("selected %d", len(sel))
		}
		assertUniqueInRange(t, sel, 50)
	}
	if s.Name() != "random" {
		t.Fatal("name")
	}
}

func TestRandomSelectClampsTarget(t *testing.T) {
	t.Parallel()
	s := NewRandom(5, rng.New(2))
	if got := len(s.Select(0, 99)); got != 5 {
		t.Fatalf("selected %d from 5 parties", got)
	}
}

func TestRandomEventualCoverage(t *testing.T) {
	t.Parallel()
	s := NewRandom(20, rng.New(3))
	seen := map[int]bool{}
	for round := 0; round < 50; round++ {
		for _, id := range s.Select(round, 5) {
			seen[id] = true
		}
	}
	if len(seen) != 20 {
		t.Fatalf("random covered only %d of 20 parties in 50 rounds", len(seen))
	}
}

func feedbackWithLoss(round int, ids []int, loss func(int) float64) fl.RoundFeedback {
	fb := fl.RoundFeedback{
		Round:     round,
		Selected:  ids,
		Completed: ids,
		MeanLoss:  map[int]float64{},
		SqLoss:    map[int]float64{},
		Duration:  map[int]float64{},
		Update:    map[int]tensor.Vec{},
	}
	for _, id := range ids {
		l := loss(id)
		fb.MeanLoss[id] = l
		fb.SqLoss[id] = l * l
		fb.Duration[id] = 1
	}
	return fb
}

func TestOortPrefersHighLossParties(t *testing.T) {
	t.Parallel()
	const n = 40
	s := NewOort(n, nil, rng.New(4))
	// Feed several rounds of feedback: parties 0-9 have 10x the loss.
	loss := func(id int) float64 {
		if id < 10 {
			return 5
		}
		return 0.5
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for round := 0; round < 5; round++ {
		s.Observe(feedbackWithLoss(round, all, loss))
	}
	// With everything tried, exploitation should strongly favor 0-9.
	highLossPicks := 0
	sel := s.Select(6, 10)
	assertUniqueInRange(t, sel, n)
	for _, id := range sel {
		if id < 10 {
			highLossPicks++
		}
	}
	if highLossPicks < 7 {
		t.Fatalf("only %d of 10 selections are high-loss parties", highLossPicks)
	}
}

func TestOortExploresUntriedParties(t *testing.T) {
	t.Parallel()
	s := NewOort(30, nil, rng.New(5))
	// Before any feedback every party is untried: selection must still fill.
	sel := s.Select(0, 10)
	if len(sel) != 10 {
		t.Fatalf("cold-start selected %d", len(sel))
	}
	assertUniqueInRange(t, sel, 30)
}

func TestOortOverprovisionsAfterStragglers(t *testing.T) {
	t.Parallel()
	s := NewOort(40, nil, rng.New(6))
	all := make([]int, 40)
	for i := range all {
		all[i] = i
	}
	fb := feedbackWithLoss(0, all[:20], func(int) float64 { return 1 })
	fb.Stragglers = []int{20, 21}
	fb.Selected = all[:22]
	s.Observe(fb)
	sel := s.Select(1, 10)
	if len(sel) != 13 { // ceil(1.3 * 10)
		t.Fatalf("over-provisioned to %d parties, want 13", len(sel))
	}
	assertUniqueInRange(t, sel, 40)
}

func TestOortStragglersLoseUtility(t *testing.T) {
	t.Parallel()
	s := NewOort(10, nil, rng.New(7))
	fb := feedbackWithLoss(0, []int{0, 1}, func(int) float64 { return 2 })
	fb.Stragglers = []int{2}
	fb.Selected = []int{0, 1, 2}
	s.Observe(fb)
	if s.utility[2] != 0 {
		// Straggler had no prior utility; burned utility stays zero.
		t.Fatalf("straggler utility %v", s.utility[2])
	}
	// Give 2 high utility then make it straggle: utility should halve.
	s.Observe(feedbackWithLoss(1, []int{2}, func(int) float64 { return 4 }))
	before := s.utility[2]
	fb2 := fl.RoundFeedback{Round: 2, Selected: []int{2}, Stragglers: []int{2}}
	s.Observe(fb2)
	if s.utility[2] >= before {
		t.Fatalf("straggler utility did not drop: %v -> %v", before, s.utility[2])
	}
}

func TestOortDataSizeWeighting(t *testing.T) {
	t.Parallel()
	sizes := make([]int, 10)
	for i := range sizes {
		sizes[i] = 10
	}
	sizes[3] = 1000
	s := NewOort(10, sizes, rng.New(8))
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	s.Observe(feedbackWithLoss(0, all, func(int) float64 { return 1 }))
	sel := s.Select(1, 1)
	if len(sel) != 1 || sel[0] != 3 {
		t.Fatalf("expected the big-data party 3, got %v", sel)
	}
}

func TestGradClusSelectsOnePerCluster(t *testing.T) {
	t.Parallel()
	const n, dim = 12, 6
	s := NewGradClus(n, dim, rng.New(9))
	// Plant three orthogonal gradient directions, four parties each.
	for i := 0; i < n; i++ {
		g := tensor.NewVec(dim)
		g[i/4] = 1
		g[5] = 0.01 * float64(i) // small jitter to avoid exact ties
		s.pool.grads[i] = g
	}
	sel := s.Select(0, 3)
	if len(sel) != 3 {
		t.Fatalf("selected %d", len(sel))
	}
	assertUniqueInRange(t, sel, n)
	groups := map[int]bool{}
	for _, id := range sel {
		groups[id/4] = true
	}
	if len(groups) != 3 {
		t.Fatalf("selections cover %d of 3 gradient groups", len(groups))
	}
}

func TestGradClusObserveUpdatesGradients(t *testing.T) {
	t.Parallel()
	s := NewGradClus(4, 3, rng.New(10))
	update := tensor.Vec{7, 8, 9}
	fb := fl.RoundFeedback{
		Round:     0,
		Selected:  []int{1},
		Completed: []int{1},
		Update:    map[int]tensor.Vec{1: update},
	}
	s.Observe(fb)
	for i, v := range update {
		if s.pool.grads[1][i] != v {
			t.Fatal("gradient not updated")
		}
		_ = i
	}
	// Stored gradient must be a copy, not an alias.
	update[0] = -1
	if s.pool.grads[1][0] == -1 {
		t.Fatal("GradClus aliases feedback storage")
	}
}

func TestGradClusColdStartRandomGradients(t *testing.T) {
	t.Parallel()
	s := NewGradClus(10, 5, rng.New(11))
	sel := s.Select(0, 4)
	if len(sel) != 4 {
		t.Fatalf("cold-start selected %d", len(sel))
	}
	assertUniqueInRange(t, sel, 10)
}

// TestGradClusScaleRecency pins the fleet-scale recency list: a re-observed
// party moves to the back (its fresh gradient stays inside the clustering
// pool's recency band instead of aging out at its first-observation slot),
// tombstones compact away, and positions stay consistent.
func TestGradClusScaleRecency(t *testing.T) {
	t.Parallel()
	s := newGradClus(20, 3, 1, rng.New(21))
	observe := func(id int) {
		s.Observe(fl.RoundFeedback{
			Completed: []int{id},
			Update:    map[int]tensor.Vec{id: {1, 2, float64(id)}},
		})
	}
	observe(0)
	for id := 1; id <= 10; id++ {
		observe(id)
	}
	observe(0) // refreshed: must move to the back
	if got := s.pool.observed[len(s.pool.observed)-1]; got != 0 {
		t.Fatalf("re-observed party at tail is %d, want 0", got)
	}
	// Churn enough re-observations to force compaction, then check every
	// live entry's position index agrees with the list.
	for round := 0; round < 30; round++ {
		observe(round % 11)
	}
	live := 0
	for i, id := range s.pool.observed {
		if id < 0 {
			continue
		}
		live++
		if s.pool.obsPos[id] != i {
			t.Fatalf("party %d position %d, list index %d", id, s.pool.obsPos[id], i)
		}
	}
	if live != 11 {
		t.Fatalf("%d live entries, want 11", live)
	}
	// Placeholders are stateless: the same party yields the same vector on
	// every call, and nothing is cached for unobserved parties.
	a, b := s.pool.gradient(19), s.pool.gradient(19)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("placeholder gradient not stable across calls")
		}
	}
	if s.pool.grads[19] != nil {
		t.Fatal("placeholder gradient was cached")
	}
}

func TestTiFLTiersByLatency(t *testing.T) {
	t.Parallel()
	latencies := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := NewTiFL(latencies, rng.New(12))
	// Parties 0,1 are tier 0 (fastest); 8,9 tier 4 (slowest).
	if s.tierOf[0] != 0 || s.tierOf[1] != 0 {
		t.Fatalf("fastest parties in tier %d/%d", s.tierOf[0], s.tierOf[1])
	}
	if s.tierOf[8] != 4 || s.tierOf[9] != 4 {
		t.Fatalf("slowest parties in tier %d/%d", s.tierOf[8], s.tierOf[9])
	}
}

func TestTiFLSelectsWithinOneTier(t *testing.T) {
	t.Parallel()
	latencies := make([]float64, 20)
	for i := range latencies {
		latencies[i] = float64(i)
	}
	s := NewTiFL(latencies, rng.New(13))
	sel := s.Select(0, 4) // tier size is exactly 4
	if len(sel) != 4 {
		t.Fatalf("selected %d", len(sel))
	}
	assertUniqueInRange(t, sel, 20)
	tier := s.tierOf[sel[0]]
	for _, id := range sel {
		if s.tierOf[id] != tier {
			t.Fatalf("selection spans tiers %d and %d", tier, s.tierOf[id])
		}
	}
}

func TestTiFLTopsUpFromNeighbours(t *testing.T) {
	t.Parallel()
	latencies := make([]float64, 10)
	for i := range latencies {
		latencies[i] = float64(i)
	}
	s := NewTiFL(latencies, rng.New(14))
	sel := s.Select(0, 6) // tier size 2 < 6: must borrow neighbours
	if len(sel) != 6 {
		t.Fatalf("selected %d", len(sel))
	}
	assertUniqueInRange(t, sel, 10)
}

func TestTiFLAdaptsTowardHighLossTiers(t *testing.T) {
	t.Parallel()
	latencies := make([]float64, 20)
	for i := range latencies {
		latencies[i] = float64(i)
	}
	s := NewTiFL(latencies, rng.New(15))
	// Five tiers of four parties, fastest first. Make the slowest tier's loss
	// huge: at adaptivity 0.7 its weight is 0.3+0.7·100 against ≈0.3 each for
	// the other four, so it should be chosen ≈98% of the time.
	all := make([]int, 20)
	for i := range all {
		all[i] = i
	}
	s.Observe(feedbackWithLoss(0, all, func(id int) float64 {
		if id >= 16 {
			return 100
		}
		return 0.001
	}))
	slowest := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		if s.chooseTier() == 4 {
			slowest++
		}
	}
	if slowest < trials*9/10 {
		t.Fatalf("high-loss tier chosen only %d/%d times", slowest, trials)
	}
}

func TestPowerOfChoicePicksHighestLossCandidates(t *testing.T) {
	t.Parallel()
	s := NewPowerOfChoice(20, 2, rng.New(16))
	all := make([]int, 20)
	for i := range all {
		all[i] = i
	}
	s.Observe(feedbackWithLoss(0, all, func(id int) float64 { return float64(id) }))
	sel := s.Select(1, 5)
	if len(sel) != 5 {
		t.Fatalf("selected %d", len(sel))
	}
	assertUniqueInRange(t, sel, 20)
	// All selected parties must rank in the top half by loss since the
	// candidate pool is 10 and we keep the top 5 of it.
	for _, id := range sel {
		if id < 5 {
			t.Fatalf("unexpectedly low-loss party %d selected", id)
		}
	}
}

func TestAllSelectorsReturnValidSelections(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(40)
		target := 1 + r.Intn(n)
		latencies := make([]float64, n)
		for i := range latencies {
			latencies[i] = 1 + r.Float64()
		}
		selectors := []fl.Selector{
			NewRandom(n, r.Split(1)),
			NewOort(n, nil, r.Split(2)),
			NewGradClus(n, 4, r.Split(3)),
			NewTiFL(latencies, r.Split(4)),
			NewPowerOfChoice(n, 2, r.Split(5)),
		}
		for _, s := range selectors {
			for round := 0; round < 3; round++ {
				sel := s.Select(round, target)
				if len(sel) == 0 || len(sel) > n {
					return false
				}
				seen := map[int]bool{}
				for _, id := range sel {
					if id < 0 || id >= n || seen[id] {
						return false
					}
					seen[id] = true
				}
				s.Observe(feedbackWithLoss(round, sel, func(int) float64 { return 1 }))
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianHelper(t *testing.T) {
	t.Parallel()
	if m := median(nil); m != 0 {
		t.Fatalf("median(nil) = %v", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}
