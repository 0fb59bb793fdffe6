package core

import (
	"testing"

	"flips/internal/fl"
)

// BenchmarkFlipsSelect measures the paper's own selector at fleet scale: 12
// label clusters, a 40-party cohort, and per op one Select plus the Observe
// that reports every tenth invited party a straggler — so over-provisioning
// is live and the straggler heap is re-keyed every round. It answers ROADMAP
// direction 5(4): the pointer-item container/heap in heap.go costs tens of
// microseconds per round whatever the population, so it stays as it is. CI
// ratchets the allocs/op.
func BenchmarkFlipsSelect(b *testing.B) {
	const numClusters, cohort = 12, 40
	for _, size := range []struct {
		name string
		n    int
	}{{"20k", 20_000}, {"100k", 100_000}} {
		b.Run(size.name, func(b *testing.B) {
			clusters := make([][]int, numClusters)
			for id := 0; id < size.n; id++ {
				clusters[id%numClusters] = append(clusters[id%numClusters], id)
			}
			s, err := NewSelector(clusters)
			if err != nil {
				b.Fatal(err)
			}
			var fb fl.RoundFeedback
			round := func(i int) {
				fb.Round = i
				fb.Selected = s.Select(i, cohort)
				fb.Completed, fb.Stragglers = fb.Completed[:0], fb.Stragglers[:0]
				for j, id := range fb.Selected {
					if j%10 == 9 {
						fb.Stragglers = append(fb.Stragglers, id)
					} else {
						fb.Completed = append(fb.Completed, id)
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
