package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	t.Parallel()
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestNewDistinctSeedsDiverge(t *testing.T) {
	t.Parallel()
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	t.Parallel()
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("siblings from distinct labels produced identical first draw")
	}
}

func TestZeroSeedUsable(t *testing.T) {
	t.Parallel()
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	t.Parallel()
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	t.Parallel()
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	t.Parallel()
	r := New(9)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := New(seed)
		alpha := 0.05 + r.Float64()*2
		dim := 2 + r.Intn(20)
		p := r.Dirichlet(alpha, dim)
		if len(p) != dim {
			return false
		}
		var sum float64
		for _, x := range p {
			if x < 0 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletSkewByAlpha(t *testing.T) {
	t.Parallel()
	// Small alpha should concentrate mass; large alpha should flatten it.
	// Measure via the mean max-proportion over many draws.
	avgMax := func(alpha float64) float64 {
		r := New(77)
		var sum float64
		const draws = 500
		for i := 0; i < draws; i++ {
			p := r.Dirichlet(alpha, 10)
			max := 0.0
			for _, x := range p {
				if x > max {
					max = x
				}
			}
			sum += max
		}
		return sum / draws
	}
	lo, hi := avgMax(0.1), avgMax(10)
	if lo <= hi {
		t.Fatalf("alpha=0.1 avg max %v should exceed alpha=10 avg max %v", lo, hi)
	}
	if lo < 0.5 {
		t.Fatalf("alpha=0.1 should be heavily skewed, got avg max %v", lo)
	}
	if hi > 0.25 {
		t.Fatalf("alpha=10 should be near-uniform, got avg max %v", hi)
	}
}

func TestGammaMean(t *testing.T) {
	t.Parallel()
	// E[Gamma(shape,1)] = shape.
	for _, shape := range []float64{0.3, 1, 2.5, 7} {
		r := New(13)
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += r.Gamma(shape)
		}
		mean := sum / n
		if math.Abs(mean-shape)/shape > 0.05 {
			t.Fatalf("Gamma(%v) mean %v too far from shape", shape, mean)
		}
	}
}

func TestLaplaceMoments(t *testing.T) {
	r := New(1)
	const b, n = 2.0, 200000
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		x := r.Laplace(b)
		sum += x
		sumAbs += math.Abs(x)
	}
	if mean := sum / n; math.Abs(mean) > 0.05 {
		t.Fatalf("laplace mean %v", mean)
	}
	// E|X| = b for Laplace(b).
	if meanAbs := sumAbs / n; math.Abs(meanAbs-b) > 0.05 {
		t.Fatalf("laplace E|X| = %v, want %v", meanAbs, b)
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	t.Parallel()
	r := New(21)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("weight ratio 3 not respected: got %v", ratio)
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(100)
		k := r.Intn(n + 1)
		s := r.SampleWithoutReplacement(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementPanicsWhenKTooLarge(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestShuffleUniformity(t *testing.T) {
	t.Parallel()
	// Chi-squared-ish sanity: position of element 0 after shuffling [0,1,2]
	// should be near uniform over 3 positions.
	r := New(31)
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		arr := []int{0, 1, 2}
		r.Shuffle(3, func(a, b int) { arr[a], arr[b] = arr[b], arr[a] })
		for pos, v := range arr {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	for pos, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/3) > 0.02 {
			t.Fatalf("position %d frequency %v deviates from 1/3", pos, frac)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	orig := New(0xFEED)
	// Advance past the freshly seeded state so the capture is mid-stream.
	for i := 0; i < 17; i++ {
		orig.Uint64()
	}
	clone := FromState(orig.State())
	for i := 0; i < 100; i++ {
		if a, b := orig.Uint64(), clone.Uint64(); a != b {
			t.Fatalf("draw %d diverged after state round trip: %x vs %x", i, a, b)
		}
	}
}
