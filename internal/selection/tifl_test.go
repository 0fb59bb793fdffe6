package selection

import (
	"math"
	"testing"

	"flips/internal/fl"
	"flips/internal/rng"
)

// TestTiFLTierWeightsAreRescans drives a 3,000-party TiFL through thousands
// of rounds — a Select, then an Observe of a random cohort whose losses span
// eight octaves, so every running sum would round — and checks after each
// that every tier weight is bit-equal to the blend of a fresh member-order
// rescan of the tier's losses: the weights a fleet of any size draws from.
func TestTiFLTierWeightsAreRescans(t *testing.T) {
	t.Parallel()
	const n, rounds = 3000, 4000
	r := rng.New(41)
	latencies := make([]float64, n)
	for i := range latencies {
		latencies[i] = 0.1 + r.Float64()
	}
	s := newTiFL(latencies, rng.New(42))
	adaptivity := tiflAdaptivity
	for round := 0; round < rounds; round++ {
		s.Select(round, 32)
		fb := fl.RoundFeedback{Round: round}
		for _, id := range r.SampleWithoutReplacement(n, 1+r.Intn(64)) {
			fb.Completed = append(fb.Completed, fl.PartyReport{ID: id, MeanLoss: math.Exp2(8*r.Float64() - 4)})
		}
		s.Observe(fb)
		got := s.tierWeights()
		for tier, members := range s.tiers {
			var mean float64
			for _, id := range members {
				mean += s.loss[id]
			}
			mean /= float64(len(members))
			want := float64((1-adaptivity)*1) + float64(adaptivity*math.Max(mean, 1e-6))
			if math.Float64bits(got[tier]) != math.Float64bits(want) {
				t.Fatalf("round %d: tier %d weight %v, a fresh rescan gives %v", round, tier, got[tier], want)
			}
		}
	}
}

var tiflBenchSizes = []struct {
	name string
	n    int
}{{"20k", 20_000}, {"100k", 100_000}, {"1M", 1_000_000}}

// BenchmarkTiFLStep measures the step the engine runs: Select(round, 32),
// then Observe of that cohort with fresh losses. The cohort comes from one
// tier, whose mean the next Select rescans, so a step costs O(parties/tiers).
// CI ratchets its allocations: the returned cohort and the sample's index
// slice.
func BenchmarkTiFLStep(b *testing.B) {
	for _, size := range tiflBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			latencies := make([]float64, size.n)
			for id := range latencies {
				latencies[id] = 0.1 + float64(id*7919%1013)/100
			}
			s := newTiFL(latencies, rng.New(5))
			var fb fl.RoundFeedback
			step := func(round int) {
				sel := s.Select(round, 32)
				fb.Round, fb.Selected = round, sel
				fb.Completed = fb.Completed[:0]
				for j, id := range sel {
					fb.Completed = append(fb.Completed, fl.PartyReport{ID: id, MeanLoss: 0.2 + float64((round+j)%1013)/100})
				}
				s.Observe(fb)
			}
			step(0) // warm the feedback and segment scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				step(i)
			}
		})
	}
}
