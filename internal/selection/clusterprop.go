package selection

import (
	"fmt"

	"flips/internal/fl"
	"flips/internal/rng"
)

// ClusterProportional is an ablation variant of FLIPS's selection policy:
// it uses the same label-distribution clusters but samples parties with
// probability proportional to cluster size instead of equitable round-robin.
// Large (majority-label) clusters therefore dominate every round, which is
// exactly the failure mode FLIPS's equal per-cluster representation is
// designed to avoid; the ablation bench quantifies that design choice.
type ClusterProportional struct {
	clusters [][]int
	weights  []float64
	r        *rng.Source
	inRound  []bool // by party id: picked this Select; all false between calls
	picked   []int  // by cluster: members picked this Select; all 0 between calls
}

var _ fl.Selector = (*ClusterProportional)(nil)

// NewClusterProportional builds the ablation selector from party clusters.
func NewClusterProportional(clusters [][]int, r *rng.Source) (*ClusterProportional, error) {
	s := &ClusterProportional{r: r}
	for _, members := range clusters {
		if len(members) == 0 {
			continue
		}
		s.clusters = append(s.clusters, append([]int(nil), members...))
		s.weights = append(s.weights, float64(len(members)))
	}
	if len(s.clusters) == 0 {
		return nil, fmt.Errorf("selection: no parties in any cluster")
	}
	size := 0
	for _, c := range s.clusters {
		for _, id := range c {
			size = max(size, id+1)
		}
	}
	s.inRound = make([]bool, size)
	s.picked = make([]int, len(s.clusters))
	return s, nil
}

// Name implements fl.Selector.
func (s *ClusterProportional) Name() string { return "cluster-proportional" }

// Select implements fl.Selector: draw clusters proportional to size, then a
// uniform not-yet-selected member within the drawn cluster.
func (s *ClusterProportional) Select(_, target int) []int {
	total := 0
	for _, c := range s.clusters {
		total += len(c)
	}
	if target > total {
		target = total
	}
	selected := make([]int, 0, target)
	for len(selected) < target {
		ci := s.r.Categorical(s.weights)
		c := s.clusters[ci]
		// Uniform free member, counted in cluster order; skip the cluster
		// if this round has exhausted it.
		free := len(c) - s.picked[ci]
		if free == 0 {
			continue
		}
		k := s.r.Intn(free)
		for _, id := range c {
			if s.inRound[id] {
				continue
			}
			if k == 0 {
				s.inRound[id] = true
				s.picked[ci]++
				selected = append(selected, id)
				break
			}
			k--
		}
	}
	for _, id := range selected {
		s.inRound[id] = false
	}
	clear(s.picked)
	return selected
}

// Observe implements fl.Selector; the ablation variant is stateless.
func (s *ClusterProportional) Observe(fl.RoundFeedback) {}
