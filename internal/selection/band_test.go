package selection

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"flips/internal/rng"
)

// referenceDraw is triedSet.draw as it was before the running prefix: one
// rng.Categorical over the remaining scores per pick, each pick
// swap-removed. draw must make the same picks from the same RNG draws.
func referenceDraw(selected, ids []int, scores []float64, n int, r *rng.Source) []int {
	for i := 0; i < n && len(ids) > 0; i++ {
		j := r.Categorical(scores)
		selected = append(selected, ids[j])
		last := len(ids) - 1
		ids[j], scores[j] = ids[last], scores[last]
		ids, scores = ids[:last], scores[:last]
	}
	return selected
}

// drawScores returns size band scores of one kind: Oort-like positive
// utilities, the same salted with zeros, negatives, NaN, +Inf, subnormals
// and values whose sum overflows, or a band with no positive score at all.
func drawScores(r *rng.Source, size int, kind string) []float64 {
	salt := []float64{
		0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 0x1p-1040, math.MaxFloat64, 1e-300,
	}
	nonPositive := []float64{0, math.Copysign(0, -1), -2.5, math.NaN(), math.Inf(-1)}
	scores := make([]float64, size)
	for i := range scores {
		switch kind {
		case "utility":
			scores[i] = r.Float64() * 10
		case "salted":
			scores[i] = r.Float64()
			if r.Intn(4) == 0 {
				scores[i] = salt[r.Intn(len(salt))]
			}
		case "zero":
			scores[i] = 0
		case "non-positive":
			scores[i] = nonPositive[r.Intn(len(nonPositive))]
		}
	}
	return scores
}

// TestDrawMatchesReference pins draw to one Categorical per pick over every
// band size from 1 to 300 and a spread of pick counts, past the band's size
// included: the same picks, the same band left behind, and the RNG at the
// same position afterwards. The zero and non-positive bands take the
// uniform Intn path on every pick; the salted ones reach +Inf totals (a
// pick is then the last index) and running sums that a tiny score leaves
// unchanged.
func TestDrawMatchesReference(t *testing.T) {
	t.Parallel()
	gen := rng.New(83)
	for size := 1; size <= 300; size++ {
		for _, kind := range []string{"utility", "salted", "zero", "non-positive"} {
			scores := drawScores(gen, size, kind)
			ids := make([]int, size)
			for i := range ids {
				ids[i] = 1000 + i
			}
			for _, n := range []int{1, 38, size / 2, size + 3} {
				seed := gen.Uint64()
				want, wantR := slices.Clone(ids), rng.New(seed)
				wantScores := slices.Clone(scores)
				wantPicks := referenceDraw(nil, want, wantScores, n, wantR)

				ts := triedSet{candIDs: slices.Clone(ids), candScores: slices.Clone(scores)}
				gotR := rng.New(seed)
				gotPicks := ts.draw(nil, n, gotR)
				what := fmt.Sprintf("%s band of %d, %d picks", kind, size, n)
				if !slices.Equal(gotPicks, wantPicks) {
					t.Fatalf("%s: picks %v, reference %v", what, gotPicks, wantPicks)
				}
				if *gotR != *wantR {
					t.Fatalf("%s: the RNG ends at another position than the reference's", what)
				}
				if !slices.Equal(ts.candIDs, want) || !slices.Equal(math64Bits(ts.candScores), math64Bits(wantScores)) {
					t.Fatalf("%s: the band left behind differs from the reference's", what)
				}
			}
		}
	}
}

func math64Bits(v []float64) []uint64 {
	bits := make([]uint64, len(v))
	for i, x := range v {
		bits[i] = math.Float64bits(x)
	}
	return bits
}

// benchmarkBandDraw times one exploitation draw at fleet_async's shape: 38
// picks from a 256-candidate band of Oort-like utilities, the band restored
// before each draw (both sides pay the copy).
func benchmarkBandDraw(b *testing.B, draw func(ts *triedSet, r *rng.Source) []int) {
	b.Run("256x38", func(b *testing.B) {
		gen := rng.New(89)
		scores := drawScores(gen, candidatePool, "utility")
		ids := make([]int, candidatePool)
		for i := range ids {
			ids[i] = i
		}
		ts := triedSet{candIDs: make([]int, candidatePool), candScores: make([]float64, candidatePool)}
		r := rng.New(97)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(ts.candIDs, ids)
			copy(ts.candScores, scores)
			drawSink = draw(&ts, r)
		}
	})
}

var drawSink []int

func BenchmarkBandDraw(b *testing.B) {
	var picks []int
	benchmarkBandDraw(b, func(ts *triedSet, r *rng.Source) []int {
		picks = ts.draw(picks[:0], 38, r)
		return picks
	})
}

// BenchmarkBandDrawReference is the same draw through one rng.Categorical per
// pick. CI gates BenchmarkBandDraw at 0.75 of it.
func BenchmarkBandDrawReference(b *testing.B) {
	var picks []int
	benchmarkBandDraw(b, func(ts *triedSet, r *rng.Source) []int {
		picks = referenceDraw(picks[:0], ts.candIDs, ts.candScores, 38, r)
		return picks
	})
}
