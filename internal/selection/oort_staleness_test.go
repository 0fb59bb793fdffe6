package selection

import (
	"math"
	"testing"

	"flips/internal/rng"
)

// The staleness bonus in scoreAt divides by age = round − lastUsed[id].
// Observe records lastUsed[id] = fb.Round, and nothing stops a caller from
// invoking Select for the same step afterwards (the Selector interface makes
// no ordering promise, and async policies re-select between aggregations), so
// age reaches exactly 0 for just-observed parties. The age > 0 guard in
// scoreAt must keep that division out; these tests pin it in both the
// small-fleet scan path and the fleet-scale heap path.

// observeThenScore drives one Observe at round then returns every tried
// party's score at the SAME round (age == 0).
func observeThenScore(t *testing.T, s *Oort, ids []int, round int) []float64 {
	t.Helper()
	s.Observe(feedbackWithLoss(round, ids, func(int) float64 { return 2 }))
	scores := make([]float64, 0, len(ids))
	for _, id := range ids {
		scores = append(scores, s.scoreAt(id, round, math.Log(float64(round+1))))
	}
	return scores
}

func TestOortScoreAgeZeroSmallFleet(t *testing.T) {
	t.Parallel()
	const n = 16
	s := newOort(n, nil, scaleModeThreshold, rng.New(11))
	ids := []int{0, 3, 7}
	for _, round := range []int{0, 4} {
		for i, sc := range observeThenScore(t, s, ids, round) {
			if math.IsNaN(sc) || math.IsInf(sc, 0) {
				t.Fatalf("round %d: party %d scored %v at age 0", round, ids[i], sc)
			}
			// Age 0 means no staleness bonus: the score is the raw utility.
			if want := s.utility[ids[i]]; sc != want {
				t.Fatalf("round %d: party %d age-0 score %v, want raw utility %v", round, ids[i], sc, want)
			}
		}
	}
	// Select in the same round as the last Observe must stay well-formed:
	// a non-finite score would poison the Categorical sampling weights.
	sel := s.Select(4, 8)
	assertUniqueInRange(t, sel, n)
	if len(sel) == 0 {
		t.Fatal("no parties selected")
	}
}

func TestOortScoreAgeZeroFleetScale(t *testing.T) {
	t.Parallel()
	const n = 64
	// Scale threshold 1 forces the fleet-scale heap path at a testable size.
	s := newOort(n, nil, 1, rng.New(12))
	if !s.scaleMode {
		t.Fatal("selector did not enter fleet-scale mode")
	}
	ids := make([]int, 0, 32)
	for id := 0; id < 32; id++ {
		ids = append(ids, id)
	}
	for _, round := range []int{0, 9} {
		for i, sc := range observeThenScore(t, s, ids, round) {
			if math.IsNaN(sc) || math.IsInf(sc, 0) {
				t.Fatalf("round %d: party %d scored %v at age 0", round, ids[i], sc)
			}
		}
	}
	// selectScale computes candidate scores for the exploitation band; with
	// every tried party at age 0 this must still sample cleanly.
	sel := s.Select(9, 16)
	assertUniqueInRange(t, sel, n)
	if len(sel) == 0 {
		t.Fatal("no parties selected")
	}
}

// TestOortStalenessBonusPositiveAtPositiveAge is the positive control for
// the guard: once age is positive the bonus is finite and strictly raises
// the score above the raw utility.
func TestOortStalenessBonusPositiveAtPositiveAge(t *testing.T) {
	t.Parallel()
	s := newOort(8, nil, scaleModeThreshold, rng.New(13))
	s.Observe(feedbackWithLoss(0, []int{2}, func(int) float64 { return 2 }))
	base := s.utility[2]
	if base <= 0 {
		t.Fatalf("observed party has utility %v", base)
	}
	for round := 1; round <= 4; round++ {
		sc := s.scoreAt(2, round, math.Log(float64(round+1)))
		if math.IsNaN(sc) || math.IsInf(sc, 0) {
			t.Fatalf("round %d: score %v", round, sc)
		}
		if sc <= base {
			t.Fatalf("round %d: staleness bonus missing (%v <= raw utility %v)", round, sc, base)
		}
	}
}
