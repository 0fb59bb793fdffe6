package selection

import (
	"testing"

	"flips/internal/fl"
	"flips/internal/rng"
)

// The benchmark's fleet_async job asks a 20k-party Oort for 32 parties per
// selection; once stragglers have been seen the request is 42 and the
// candidate band candidatePool.
const (
	oortBenchTarget = 32
	oortBenchCohort = 42
)

var oortBenchSizes = []struct {
	name string
	n    int
}{{"20k", 20_000}, {"100k", 100_000}}

// buildOortFleet warms a fleet-scale Oort until every party has been tried
// and a straggler seen, so Select is pure exploitation over a full heap.
func buildOortFleet(n int) *Oort {
	s := NewOort(n, nil, rng.New(5))
	const chunk = 1000
	for round, lo := 0, 0; lo < n; round, lo = round+1, lo+chunk {
		fb := fl.RoundFeedback{
			Round:      round,
			SqLoss:     make(map[int]float64, chunk),
			Duration:   make(map[int]float64, chunk),
			Stragglers: []int{lo},
		}
		for id := lo + 1; id < lo+chunk && id < n; id++ {
			fb.Completed = append(fb.Completed, id)
			loss := 0.2 + float64(id*7919%1013)/100
			fb.SqLoss[id] = loss * loss
			fb.Duration[id] = 0.5 + float64(id%5)/4
		}
		s.Observe(fb)
	}
	return s
}

// BenchmarkOortSelect measures the fleet-scale Select hot path. CI ratchets
// its allocations (the returned cohort) and fails when the 100k cell costs
// more than 1.5× the 20k one: a selection reads a fixed-size band, whatever
// the population.
func BenchmarkOortSelect(b *testing.B) {
	for _, size := range oortBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			s := buildOortFleet(size.n)
			round := size.n // past every warm-up round, so every candidate has aged
			s.Select(round, oortBenchTarget)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Select(round+i, oortBenchTarget)
			}
		})
	}
}

// BenchmarkOortObserve measures the fleet-scale Observe hot path: one
// cohort's feedback with fresh losses each call, so every completed party is
// re-keyed in the heap (allocation-ratcheted in CI at 0).
func BenchmarkOortObserve(b *testing.B) {
	for _, size := range oortBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			s := buildOortFleet(size.n)
			fb := fl.RoundFeedback{
				SqLoss:   make(map[int]float64, oortBenchCohort),
				Duration: make(map[int]float64, oortBenchCohort),
			}
			for j := 0; j < oortBenchCohort; j++ {
				id := (j*size.n/oortBenchCohort + 17) % size.n
				if j%8 == 7 {
					fb.Stragglers = append(fb.Stragglers, id)
					continue
				}
				fb.Completed = append(fb.Completed, id)
				fb.Duration[id] = 0.5 + float64(j%5)/4
			}
			observe := func(i int) {
				fb.Round = size.n + i
				for j, id := range fb.Completed {
					fb.SqLoss[id] = float64(1 + (i+j)%13)
				}
				s.Observe(fb)
			}
			observe(0) // warm the duration scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				observe(i)
			}
		})
	}
}

// TestOortFleetWarm pins what the two benchmarks assume about their fixture.
func TestOortFleetWarm(t *testing.T) {
	t.Parallel()
	s := buildOortFleet(3 * scaleModeThreshold)
	if !s.scaleMode || !s.sawStrag || len(s.untried) != 0 || s.heap.len() != s.numParties {
		t.Fatalf("fixture not warm: scaleMode=%v sawStrag=%v untried=%d heap=%d of %d",
			s.scaleMode, s.sawStrag, len(s.untried), s.heap.len(), s.numParties)
	}
	if got := len(s.Select(s.numParties, oortBenchTarget)); got != oortBenchCohort {
		t.Fatalf("Select(%d) invited %d, want the over-provisioned %d", oortBenchTarget, got, oortBenchCohort)
	}
	if len(s.candIDs) != candidatePool {
		t.Fatalf("Select read a band of %d candidates, want candidatePool = %d", len(s.candIDs), candidatePool)
	}
}
