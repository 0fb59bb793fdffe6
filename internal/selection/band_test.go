package selection

import (
	"cmp"
	"encoding/binary"
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
// and values whose sum overflows, a band with no positive score at all, and
// bands that stress the certified pick's bound and guards: powers-of-two
// ties (every prefix sum exact, so a draw can land on one), subnormals,
// and totals near the lower and upper guards (drawFloor, drawCeil), which
// picks carry across as they remove scores.
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
		case "pow2":
			scores[i] = math.Ldexp(1, r.Intn(4)-2)
		case "subnormal":
			scores[i] = float64(1+r.Intn(1000)) * math.SmallestNonzeroFloat64
		case "floor":
			scores[i] = (0.5 + r.Float64()) * 0x1p-908
		case "ceil":
			scores[i] = (0.5 + r.Float64()) * 0x1p992
		}
	}
	return scores
}

// drawKinds are drawScores' kinds.
var drawKinds = []string{"utility", "salted", "zero", "non-positive", "pow2", "subnormal", "floor", "ceil"}

// checkDraw draws n picks from the band (ids, scores) with draw and with
// referenceDraw from the same seed, and fails unless both make the same
// picks, leave the same band behind and leave the RNG at the same position.
func checkDraw(t *testing.T, what string, ids []int, scores []float64, n int, seed uint64) {
	t.Helper()
	want, wantScores, wantR := slices.Clone(ids), slices.Clone(scores), rng.New(seed)
	wantPicks := referenceDraw(nil, want, wantScores, n, wantR)

	ts := triedSet{candIDs: slices.Clone(ids), candScores: slices.Clone(scores)}
	gotR := rng.New(seed)
	gotPicks := ts.draw(nil, n, gotR)
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

// sortDescending orders a band as readBand returns it: best score first,
// NaN last.
func sortDescending(scores []float64) {
	slices.SortStableFunc(scores, func(x, y float64) int { return cmp.Compare(y, x) })
}

// TestDrawMatchesReference pins draw to one Categorical per pick over every
// band size from 1 to 300, every kind of drawScores, unsorted and sorted as
// readBand returns a band, and a spread of pick counts, past the band's size
// included: the same picks, the same band left behind, and the RNG at the
// same position afterwards. The zero and non-positive bands take the
// uniform Intn path on every pick; the salted ones the chain on every pick
// (a NaN or ±Inf in the band), reaching +Inf totals (a pick is then the last
// index) and running sums that a tiny score leaves unchanged; the subnormal
// ones and the guard-crossing ones the chain below drawFloor or above
// drawCeil.
func TestDrawMatchesReference(t *testing.T) {
	t.Parallel()
	gen := rng.New(83)
	for size := 1; size <= 300; size++ {
		for _, kind := range drawKinds {
			for _, sorted := range []bool{false, true} {
				scores := drawScores(gen, size, kind)
				if sorted {
					sortDescending(scores)
				}
				ids := make([]int, size)
				for i := range ids {
					ids[i] = 1000 + i
				}
				for _, n := range []int{1, 40, size / 2, size + 3} {
					what := fmt.Sprintf("%s band of %d (sorted %v), %d picks", kind, size, sorted, n)
					checkDraw(t, what, ids, scores, n, gen.Uint64())
				}
			}
		}
	}
}

// categoricalAt is rng.Categorical's pick with its uniform draw given as f,
// for weights with a positive total: the reference for sumTree.pick.
func categoricalAt(weights []float64, f float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	u := f * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// TestPickFallsBackToTheChain drives sumTree.pick with chosen draws over a
// band of powers-of-two ties, whose prefix sums are exact: a draw that lands
// on a prefix sum, or within the rounding bound of one, cannot be certified
// and is made by the chain; any other is the tree's. Both paths run, and
// every pick is Categorical's. It then removes scores one by one and checks
// the tree's sums against a fresh tree over what is left.
func TestPickFallsBackToTheChain(t *testing.T) {
	t.Parallel()
	scores := []float64{1, 0.5, 0, 0.5, 2, -1, 1, 3}
	var tree sumTree
	tree.reset(scores)
	if tree.node[1] != 8 {
		t.Fatalf("total %v, want 8", tree.node[1])
	}
	certified, chained := 0, 0
	for k := 0; k < 1024; k++ {
		for _, f := range []float64{float64(k) / 1024, math.Nextafter(float64(k)/1024, 0), math.Nextafter(float64(k)/1024, 1)} {
			if j, want := tree.pick(scores, f), categoricalAt(scores, f); j != want {
				t.Fatalf("f = %v: pick %d, Categorical %d", f, j, want)
			}
			v := f * tree.node[1]
			if leaf, acc := tree.descend(v); tree.certifies(leaf, acc, v) {
				certified++
			} else {
				chained++
			}
		}
	}
	// Draws k/1024 at a prefix sum (v = 1, 1.5, 2, 4, 5) and their
	// neighbours one ulp away, and v = 0, are the chain's.
	if certified == 0 || chained < 5*3 {
		t.Fatalf("certified %d picks and chained %d: both paths must run", certified, chained)
	}

	// A band whose chain absorbs its small scores: Categorical's running
	// sum stays at 1 after the first score, so every draw picks index 0,
	// while the tree sums the 255 halves of an ulp in subtrees to a total
	// 2^-45 above 1. A draw in that sliver lands on a small leaf in the
	// tree's sums, and only the bound keeps the pick from taking it.
	absorbed := make([]float64, 256)
	absorbed[0] = 1
	for i := 1; i < len(absorbed); i++ {
		absorbed[i] = 0x1p-53
	}
	var wide sumTree
	wide.reset(absorbed)
	inSliver := 0
	for k := 1; k <= 300; k++ {
		f := 1 - float64(k)*0x1p-53
		if leaf, _ := wide.descend(f * wide.node[1]); leaf != wide.size {
			inSliver++
		}
		if j := wide.pick(absorbed, f); j != 0 {
			t.Fatalf("f = 1 - %d ulp: pick %d, Categorical 0", k, j)
		}
	}
	if inSliver == 0 {
		t.Fatal("no draw landed past the first leaf in the tree's sums")
	}

	band := slices.Clone(scores)
	for len(band) > 0 {
		j := len(band) / 3
		last := len(band) - 1
		band[j] = band[last]
		band = band[:last]
		tree.remove(j, last)
		// A fresh tree over what is left, padded with zeros to the band's
		// length, must hold the same sums bit for bit.
		var fresh sumTree
		fresh.reset(append(slices.Clone(band), make([]float64, len(scores)-len(band))...))
		if !slices.Equal(math64Bits(tree.node), math64Bits(fresh.node)) {
			t.Fatalf("after a removal the tree holds %v, a fresh tree %v", tree.node, fresh.node)
		}
	}
	if tree.node[1] != 0 {
		t.Fatalf("an emptied tree totals %v", tree.node[1])
	}
}

// FuzzBandDraw compares draw with referenceDraw on generated bands: one of
// drawScores' kinds at a size of 1 to 300, optionally sorted as readBand
// returns it, its leading scores overwritten bit for bit by the fuzzer's
// words, and any pick count. The picks, the band left behind and the RNG's
// end position must match.
func FuzzBandDraw(f *testing.F) {
	for i := range drawKinds {
		f.Add(uint64(i), uint16(256), uint16(40), uint8(i), true, []byte{})
		f.Add(uint64(i+100), uint16(37), uint16(300), uint8(i), false, []byte{})
	}
	nan := math.Float64bits(math.NaN())
	f.Add(uint64(7), uint16(12), uint16(5), uint8(0), false, binary.LittleEndian.AppendUint64(nil, nan))
	f.Add(uint64(8), uint16(3), uint16(3), uint8(4), true, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))))
	f.Fuzz(func(t *testing.T, seed uint64, size, picks uint16, kind uint8, sorted bool, raw []byte) {
		n := 1 + int(size)%300
		gen := rng.New(seed)
		scores := drawScores(gen, n, drawKinds[int(kind)%len(drawKinds)])
		for i := 0; i < n && 8*i+8 <= len(raw); i++ {
			scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if sorted {
			sortDescending(scores)
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		checkDraw(t, fmt.Sprintf("band of %d, %d picks", n, picks), ids, scores, int(picks), gen.Uint64())
	})
}

func math64Bits(v []float64) []uint64 {
	bits := make([]uint64, len(v))
	for i, x := range v {
		bits[i] = math.Float64bits(x)
	}
	return bits
}

// benchmarkBandDraw times one exploitation draw at two shapes, the band
// restored before each draw (both sides pay the copy): 38 picks from a
// 256-candidate band of Oort-like utilities in no order, and fleet_async's
// measured shape, 40 picks from a 256-candidate band sorted by utility,
// best first, as readBand returns it.
func benchmarkBandDraw(b *testing.B, draw func(ts *triedSet, n int, r *rng.Source) []int) {
	for _, c := range []struct {
		name   string
		picks  int
		sorted bool
	}{{"256x38", 38, false}, {"sorted256x40", 40, true}} {
		b.Run(c.name, func(b *testing.B) {
			gen := rng.New(89)
			scores := drawScores(gen, candidatePool, "utility")
			if c.sorted {
				slices.SortFunc(scores, func(x, y float64) int { return cmp.Compare(y, x) })
			}
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
				drawSink = draw(&ts, c.picks, r)
			}
		})
	}
}

var drawSink []int

func BenchmarkBandDraw(b *testing.B) {
	var picks []int
	benchmarkBandDraw(b, func(ts *triedSet, n int, r *rng.Source) []int {
		picks = ts.draw(picks[:0], n, r)
		return picks
	})
}

// BenchmarkBandDrawReference is the same draw through one rng.Categorical per
// pick. CI gates BenchmarkBandDraw at a fraction of it.
func BenchmarkBandDrawReference(b *testing.B) {
	var picks []int
	benchmarkBandDraw(b, func(ts *triedSet, n int, r *rng.Source) []int {
		picks = referenceDraw(picks[:0], ts.candIDs, ts.candScores, n, r)
		return picks
	})
}
