package selection

import (
	"slices"
	"testing"

	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// poolReference is gradPool.pool as it was written with a map keyed by party
// id for its dedupe scratch: the reference the dense []bool is held to.
func poolReference(p *gradPool, target int, r *rng.Source) []int {
	size := max(gradPoolCap, 2*target)
	size = min(size, p.numParties)
	pool := make([]int, 0, size)
	inPool := make(map[int]bool)
	obsCap := size / 2
	for i := len(p.observed) - 1; i >= 0 && obsCap > 0; i-- {
		id := p.observed[i]
		if id < 0 {
			continue
		}
		pool = append(pool, id)
		inPool[id] = true
		obsCap--
	}
	for tries := 0; len(pool) < size && tries < 16*size; tries++ {
		id := r.Intn(p.numParties)
		if !inPool[id] {
			inPool[id] = true
			pool = append(pool, id)
		}
	}
	for id := 0; len(pool) < size && id < p.numParties; id++ {
		if !inPool[id] {
			inPool[id] = true
			pool = append(pool, id)
		}
	}
	return pool
}

// TestGradPoolMatchesReference runs the fleet-scale pool (scale threshold 1)
// over long random observation sequences and compares every round's pool and
// the RNG's end state with the map-based reference. Small fleets make the
// fallback walk run; large targets make the pool the whole fleet.
func TestGradPoolMatchesReference(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 50, 300, 2000} {
		p := newGradPool(n, 2, 1, rng.New(uint64(n)))
		if !p.scaleMode {
			t.Fatalf("n=%d: threshold 1 left the pool below scale mode", n)
		}
		drive := rng.New(uint64(n) + 1)
		r := rng.New(uint64(n) + 2)
		for round := 0; round < 400; round++ {
			target := 1 + drive.Intn(min(n, 150))
			ref := *r
			got := p.pool(target, r)
			want := poolReference(p, target, &ref)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d round %d target %d: pool %v, reference %v", n, round, target, got, want)
			}
			if r.State() != ref.State() {
				t.Fatalf("n=%d round %d: the pool drew a different number of values than the reference", n, round)
			}
			for id, in := range p.inPool {
				if in {
					t.Fatalf("n=%d round %d: party %d left marked in the pool scratch", n, round, id)
				}
			}
			var fb fl.RoundFeedback
			for _, id := range got {
				if drive.Intn(3) == 0 {
					fb.Completed = append(fb.Completed, fl.PartyReport{ID: id, Update: tensor.Vec{drive.Float64(), 1}})
				}
			}
			p.observe(fb)
		}
	}
}

// selectReference is ClusterProportional.Select as it was written with a
// per-call map keyed by party id.
func selectReference(s *ClusterProportional, target int) []int {
	total := 0
	for _, c := range s.clusters {
		total += len(c)
	}
	if target > total {
		target = total
	}
	selected := make([]int, 0, target)
	inRound := make(map[int]bool, target)
	for len(selected) < target {
		c := s.clusters[s.r.Categorical(s.weights)]
		free := make([]int, 0, len(c))
		for _, id := range c {
			if !inRound[id] {
				free = append(free, id)
			}
		}
		if len(free) == 0 {
			continue
		}
		id := free[s.r.Intn(len(free))]
		inRound[id] = true
		selected = append(selected, id)
	}
	return selected
}

// TestClusterProportionalMatchesReference compares the reused []bool against
// the per-call map over long runs: unequal clusters, sparse and unsorted ids,
// targets that exhaust a cluster and targets above the fleet.
func TestClusterProportionalMatchesReference(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 6; seed++ {
		shape := rng.New(seed)
		ids := make([]int, 40+shape.Intn(200))
		for i := range ids {
			ids[i] = 3 * i
		}
		shape.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		var clusters [][]int
		for len(ids) > 0 {
			k := min(1+shape.Intn(30), len(ids))
			clusters = append(clusters, ids[:k])
			ids = ids[k:]
		}
		got, err := NewClusterProportional(clusters, rng.New(seed+100))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewClusterProportional(clusters, rng.New(seed+100))
		total := 0
		for _, c := range clusters {
			total += len(c)
		}
		for round := 0; round < 500; round++ {
			target := 1 + shape.Intn(total+10)
			g, w := got.Select(round, target), selectReference(want, target)
			if !slices.Equal(g, w) {
				t.Fatalf("seed %d round %d target %d: %v, reference %v", seed, round, target, g, w)
			}
		}
		if got.r.State() != want.r.State() {
			t.Fatalf("seed %d: RNG end states differ", seed)
		}
		for id, in := range got.inRound {
			if in {
				t.Fatalf("seed %d: party %d left marked after Select", seed, id)
			}
		}
	}
}
