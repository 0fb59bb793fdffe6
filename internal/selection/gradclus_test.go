package selection

import (
	"math"
	"strconv"
	"testing"

	"flips/internal/cluster"
	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// gradClusStep feeds one round's feedback: every selected party completes
// with a fresh update drawn from r, except that every seventh report carries
// an update of the wrong length (not stored) and every eleventh a zero
// update (zero norm). A party may report twice.
func gradClusStep(s *GradClus, round int, sel []int, dim int, r *rng.Source) {
	fb := fl.RoundFeedback{Round: round, Selected: sel}
	for j, id := range sel {
		u := tensor.NewVec(dim)
		switch {
		case (round+j)%7 == 0:
			u = tensor.NewVec(dim + 1)
		case (round+j)%11 == 0:
		default:
			r.Normals(u)
		}
		fb.Completed = append(fb.Completed, fl.PartyReport{ID: id, Update: u})
		if j == 0 {
			fb.Completed = append(fb.Completed, fl.PartyReport{ID: id, Update: u})
		}
	}
	s.Observe(fb)
}

// TestGradClusKeptDistancesMatchFresh: below the scale threshold GradClus
// keeps its distance matrix between rounds and recomputes only the rows of
// the parties Observe changed. After every round of a long run the kept
// matrix is bit-equal to a fresh CosineDistanceMatrix of the current
// gradients, and the selections equal those of a twin that rebuilds the
// matrix every round.
func TestGradClusKeptDistancesMatchFresh(t *testing.T) {
	t.Parallel()
	const n, dim, rounds = 48, 9, 300
	kept := newGradClus(n, dim, scaleModeThreshold, rng.New(17))
	fresh := newGradClus(n, dim, scaleModeThreshold, rng.New(17))
	feedA, feedB := rng.New(3), rng.New(3)
	for round := 0; round < rounds; round++ {
		target := 1 + round%9
		fresh.dist = nil // rebuild whole, as every Select did before the matrix was kept
		a, b := kept.Select(round, target), fresh.Select(round, target)
		if len(a) != len(b) {
			t.Fatalf("round %d: selected %v, the rebuilding twin %v", round, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: selected %v, the rebuilding twin %v", round, a, b)
			}
		}
		want := cluster.CosineDistanceMatrix(kept.pool.grads)
		for i, v := range want.Data {
			if math.Float64bits(kept.dist.Data[i]) != math.Float64bits(v) {
				t.Fatalf("round %d: kept d[%d][%d] = %v, fresh %v", round, i/n, i%n, kept.dist.Data[i], v)
			}
		}
		gradClusStep(kept, round, a, dim, feedA)
		gradClusStep(fresh, round, b, dim, feedB)
	}
}

// BenchmarkGradClusSelect is one GradClus round below the scale threshold, at
// the paper grid's 200 parties and at 2,000: Select of a 10 % cohort, then
// Observe of that cohort's updates (the ECG logistic regression's 165
// parameters). Only the observed parties' rows of the distance matrix are
// recomputed; the agglomerative clustering over all parties is the rest.
func BenchmarkGradClusSelect(b *testing.B) {
	for _, n := range []int{200, 2000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			const dim = 165
			s := newGradClus(n, dim, scaleModeThreshold, rng.New(5))
			r := rng.New(6)
			target := n / 10
			ups := make([]tensor.Vec, target)
			for i := range ups {
				ups[i] = tensor.NewVec(dim)
			}
			var fb fl.RoundFeedback
			step := func(round int) {
				sel := s.Select(round, target)
				fb.Round, fb.Selected, fb.Completed = round, sel, fb.Completed[:0]
				for j, id := range sel {
					r.Normals(ups[j])
					fb.Completed = append(fb.Completed, fl.PartyReport{ID: id, Update: ups[j]})
				}
				s.Observe(fb)
			}
			step(0) // the first Select builds the whole matrix
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				step(i)
			}
		})
	}
}
