package selection

import (
	"fmt"
	"math"
	"testing"

	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

var scoredKinds = []scoredKind{scoreGradNorm, scoreLossProp, scoreDivergence, scoreSoftDeadline, scoreHardDeadline}

// TestScoredThresholdForcingBitIdentical is the PR 4–5 twin rule for the
// Scored family: a threshold-1 (forced fleet-scale) instance whose candidate
// band (candidatePool ≥ n here) covers the tried set must produce byte-identical
// trajectories to the default-threshold exact instance — the scale threshold
// only bounds the band, it must not touch state or RNG consumption.
func TestScoredThresholdForcingBitIdentical(t *testing.T) {
	t.Parallel()
	const n, target, gradDim = 40, 9, 6
	for _, kind := range scoredKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			exact := newScored(kind, n, 0, scaleModeThreshold, rng.New(11))
			forced := newScored(kind, n, 0, 1, rng.New(11))
			needUpdates := exact.NeedsUpdates()
			for round := 0; round < 8; round++ {
				a := exact.Select(round, target)
				b := forced.Select(round, target)
				if fmt.Sprint(a) != fmt.Sprint(b) {
					t.Fatalf("round %d: exact and forced fleet-scale twins diverged:\n%v\n%v", round, a, b)
				}
				fb, _ := scenarioFeedback(round, a, gradDim, needUpdates)
				exact.Observe(fb)
				forced.Observe(fb)
			}
		})
	}
}

// TestScoredRanksBySignal pins each kind's scoring direction with a
// hand-built feedback round: the party with the stronger signal must carry
// the higher internal score.
func TestScoredRanksBySignal(t *testing.T) {
	t.Parallel()
	const n = 8
	mkUpdate := func(scale float64) tensor.Vec {
		return tensor.Vec{scale, 0, 0}
	}
	fb := fl.RoundFeedback{
		Round:     0,
		Selected:  []int{0, 1},
		Completed: []int{0, 1},
		MeanLoss:  map[int]float64{0: 0.2, 1: 2.0},
		SqLoss:    map[int]float64{0: 0.04, 1: 4.0},
		Duration:  map[int]float64{0: 1.0, 1: 5.0},
		Update:    map[int]tensor.Vec{0: mkUpdate(0.1), 1: mkUpdate(3.0)},
	}
	check := func(name string, s *Scored, lo, hi int) {
		if !(s.utility[hi] > s.utility[lo]) {
			t.Errorf("%s: utility[%d]=%v not above utility[%d]=%v", name, hi, s.utility[hi], lo, s.utility[lo])
		}
	}

	gn := newScored(scoreGradNorm, n, 0, scaleModeThreshold, rng.New(1))
	gn.Observe(fb)
	check("grad-norm", gn, 0, 1)

	lp := newScored(scoreLossProp, n, 0, scaleModeThreshold, rng.New(1))
	lp.Observe(fb)
	check("loss-prop", lp, 0, 1)

	// Divergence: party 1's update is far from the round mean ((0.1+3)/2).
	dv := newScored(scoreDivergence, n, 0, scaleModeThreshold, rng.New(1))
	dv.Observe(fb)
	if math.Abs(dv.utility[0]-dv.utility[1]) > 1e-12 {
		t.Errorf("divergence: two-party round should score both parties equally far from the mean: %v vs %v",
			dv.utility[0], dv.utility[1])
	}

	// Deadline kinds: fixed deadline 2.0; party 0 fits, party 1 overshoots.
	sd := newScored(scoreSoftDeadline, n, 2, scaleModeThreshold, rng.New(1))
	sd.Observe(fb)
	check("soft-deadline", sd, 1, 0)
	if want := (2.0 / 5.0) * (2.0 / 5.0); math.Abs(sd.utility[1]-want) > 1e-12 {
		t.Errorf("soft-deadline overshoot score %v, want %v", sd.utility[1], want)
	}

	hd := newScored(scoreHardDeadline, n, 2, scaleModeThreshold, rng.New(1))
	hd.Observe(fb)
	if hd.utility[1] != 0 {
		t.Errorf("hard-deadline: overshooting party scored %v, want 0", hd.utility[1])
	}
	if hd.utility[0] != 1 {
		t.Errorf("hard-deadline: fitting party scored %v, want 1", hd.utility[0])
	}

	// Adaptive deadline: resolved from history *before* this round's
	// durations are ingested — the first round judges everyone against +Inf.
	ad := newScored(scoreHardDeadline, n, 0, scaleModeThreshold, rng.New(1))
	ad.Observe(fb)
	if ad.utility[0] != 1 || ad.utility[1] != 1 {
		t.Errorf("adaptive hard-deadline first round scored %v/%v, want 1/1", ad.utility[0], ad.utility[1])
	}
	if got, want := ad.deadline(), 3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("adaptive deadline after one round %v, want mean %v", got, want)
	}

	// Stragglers: soft quarters the score, hard zeroes it.
	strag := fl.RoundFeedback{Round: 1, Selected: []int{0}, Stragglers: []int{0}}
	sd.Observe(strag)
	if want := 0.25; math.Abs(sd.utility[0]-want) > 1e-12 {
		t.Errorf("soft-deadline straggler score %v, want %v", sd.utility[0], want)
	}
	hd.Observe(strag)
	if hd.utility[0] != 0 {
		t.Errorf("hard-deadline straggler score %v, want 0", hd.utility[0])
	}
}

// buildScoredFleet warms a fleet-scale Scored selector with enough observed
// history that Select exercises the bounded candidate band.
func buildScoredFleet(kind scoredKind, n int) (*Scored, fl.RoundFeedback) {
	s := newScored(kind, n, 0, scaleModeThreshold, rng.New(5))
	const cohort = 1000
	ids := make([]int, cohort)
	fb := fl.RoundFeedback{
		MeanLoss: make(map[int]float64, cohort),
		SqLoss:   make(map[int]float64, cohort),
		Duration: make(map[int]float64, cohort),
	}
	if s.NeedsUpdates() {
		fb.Update = make(map[int]tensor.Vec, cohort)
	}
	for i := range ids {
		id := (i * 97) % n
		ids[i] = id
		loss := 0.2 + float64(id%11)/10
		fb.MeanLoss[id] = loss
		fb.SqLoss[id] = loss * loss
		fb.Duration[id] = 0.5 + float64(id%5)/4
		if fb.Update != nil {
			u := tensor.NewVec(8)
			for j := range u {
				u[j] = math.Sin(float64(id + j))
			}
			fb.Update[id] = u
		}
	}
	fb.Selected = ids
	fb.Completed = ids
	s.Observe(fb)
	return s, fb
}

// BenchmarkScoredSelect measures the fleet-scale Select hot path at 100k
// parties (allocation-ratcheted in CI: the only per-call heap growth allowed
// is the returned cohort slice).
func BenchmarkScoredSelect(b *testing.B) {
	const n = 100_000
	for _, kind := range scoredKinds {
		b.Run(kind.String(), func(b *testing.B) {
			s, _ := buildScoredFleet(kind, n)
			s.Select(0, 64) // warm the band scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Select(i, 64)
			}
		})
	}
}

// BenchmarkScoredObserve measures the fleet-scale Observe hot path at 100k
// parties with a 1000-party completed cohort (allocation-ratcheted in CI).
func BenchmarkScoredObserve(b *testing.B) {
	const n = 100_000
	for _, kind := range scoredKinds {
		b.Run(kind.String(), func(b *testing.B) {
			s, fb := buildScoredFleet(kind, n)
			fb.Round = 1
			s.Observe(fb) // warm the sort scratch and heap entries
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fb.Round = 2 + i
				s.Observe(fb)
			}
		})
	}
}
