package core

import (
	"testing"

	"flips/internal/fl"
)

// equalClusters spreads n parties over 12 equal label clusters, party id
// % 12.
func equalClusters(n int) [][]int {
	clusters := make([][]int, 12)
	for id := 0; id < n; id++ {
		clusters[id%12] = append(clusters[id%12], id)
	}
	return clusters
}

// BenchmarkNewSelector builds the selector over 12 equal label clusters of
// 100k and 1M parties. Per op a few tables the size of the fleet and one
// heap of ids per cluster, nothing per party: with a map entry and a heap
// node per party it read ~1M allocs/op and ~225 MB at 1M. CI ratchets the
// allocs/op.
func BenchmarkNewSelector(b *testing.B) {
	for _, bc := range []struct {
		name    string
		parties int
	}{{"100k", 100_000}, {"1M", 1_000_000}} {
		b.Run(bc.name, func(b *testing.B) {
			clusters := equalClusters(bc.parties)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewSelector(clusters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlipsSelect measures the paper's own selector at fleet scale, per
// op one Select plus the Observe that reports every tenth invited party a
// straggler — so over-provisioning is live and the straggler counts move
// every round. Two shapes:
//   - 12 equal label clusters and a 40-party cohort at 20k and 100k parties:
//     the typed id heaps cost microseconds per round whatever the
//     population;
//   - the product's default 20 % cohort over the five unequal clusters a
//     100k-party ECG fleet forms, at 5 % and 20 %: at 20 % the three small
//     clusters run dry within one Select, and a Select that popped a dry
//     cluster's whole heap on each of its turns read ~4 s per op here.
//
// CI ratchets the allocs/op, and the 20 % / 5 % time ratio (linear: ~4).
func BenchmarkFlipsSelect(b *testing.B) {
	ecg100k := func() [][]int { // consecutive ids
		var clusters [][]int
		id := 0
		for _, size := range []int{84_954, 5_297, 5_461, 3_202, 1_086} {
			c := make([]int, size)
			for j := range c {
				c[j] = id
				id++
			}
			clusters = append(clusters, c)
		}
		return clusters
	}
	for _, bc := range []struct {
		name     string
		clusters [][]int
		cohort   int
	}{
		{"20k", equalClusters(20_000), 40},
		{"100k", equalClusters(100_000), 40},
		{"100k-5pct", ecg100k(), 5_000},
		{"100k-20pct", ecg100k(), 20_000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := NewSelector(bc.clusters)
			if err != nil {
				b.Fatal(err)
			}
			var fb fl.RoundFeedback
			round := func(i int) {
				fb.Round = i
				fb.Selected = s.Select(i, bc.cohort)
				fb.Completed, fb.Stragglers = fb.Completed[:0], fb.Stragglers[:0]
				for j, id := range fb.Selected {
					if j%10 == 9 {
						fb.Stragglers = append(fb.Stragglers, id)
					} else {
						fb.Completed = append(fb.Completed, fl.PartyReport{ID: id})
					}
				}
				s.Observe(fb)
			}
			round(0) // stragglers outstanding from the first measured round on
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				round(i)
			}
		})
	}
}
