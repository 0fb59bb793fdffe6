package cluster

import (
	"encoding/binary"
	"math"
	"testing"

	"flips/internal/rng"
	"flips/internal/tensor"
)

// The per-point K-Means below is the reference the flat sweep must reproduce
// bit for bit: every point and centroid its own tensor.Vec, fresh sums every
// Lloyd pass, a clone per seed and re-seed. It also counts re-seeds, so a
// test can prove it reached the empty-cluster path.

func refKMeans(points []tensor.Vec, k int, r *rng.Source, maxIter int) (res *kmFit, reseeds int) {
	centroids := refSeedPlusPlus(points, k, r)
	assignments := make([]int, len(points))
	prevInertia := math.Inf(1)
	var inertia float64
	var iter int

	for iter = 0; iter < maxIter; iter++ {
		inertia = refAssign(points, centroids, assignments)
		reseeds += refUpdate(points, centroids, assignments)
		if prevInertia-inertia <= tolerance*math.Max(prevInertia, 1) {
			break
		}
		prevInertia = inertia
	}
	inertia = refAssign(points, centroids, assignments)
	return &kmFit{&KMeansResult{Centroids: centroids, Assignments: assignments}, inertia, iter + 1}, reseeds
}

// refUpdate moves centroids to their members' means in place and returns
// how many empty clusters it re-seeded.
func refUpdate(points, centroids []tensor.Vec, assignments []int) (reseeds int) {
	k := len(centroids)
	sums := make([]tensor.Vec, k)
	counts := make([]int, k)
	for c := range sums {
		sums[c] = tensor.NewVec(len(points[0]))
	}
	for i, p := range points {
		sums[assignments[i]].AddInPlace(p)
		counts[assignments[i]]++
	}
	for c := range centroids {
		if counts[c] == 0 {
			centroids[c] = points[refFarthestPoint(points, centroids, assignments)].Clone()
			reseeds++
			continue
		}
		sums[c].ScaleInPlace(1 / float64(counts[c]))
		centroids[c] = sums[c]
	}
	return reseeds
}

func refAssign(points, centroids []tensor.Vec, assignments []int) float64 {
	var inertia float64
	for i, p := range points {
		best, bestD := 0, p.SqDist(centroids[0])
		for c := 1; c < len(centroids); c++ {
			if d := p.SqDist(centroids[c]); d < bestD {
				best, bestD = c, d
			}
		}
		assignments[i] = best
		inertia = refAdd(inertia, bestD)
	}
	return inertia
}

// refAdd is sum + x, keeping x's NaN, quieted, where both are NaN. A plain
// add of a fresh distance to a running sum keeps the distance's NaN in a
// normal build, but under fuzzing's coverage instrumentation the compiler
// puts the sum first and keeps its NaN instead; the reference fixes the
// operand so the flat sweep is held to one payload in every build.
func refAdd(sum, x float64) float64 {
	if x != x {
		return x + 0
	}
	return sum + x
}

func refSeedPlusPlus(points []tensor.Vec, k int, r *rng.Source) []tensor.Vec {
	centroids := make([]tensor.Vec, 0, k)
	centroids = append(centroids, points[r.Intn(len(points))].Clone())
	d2 := make([]float64, len(points))
	for i, p := range points {
		d2[i] = p.SqDist(centroids[0])
	}
	for len(centroids) < k {
		idx := r.Categorical(d2)
		centroids = append(centroids, points[idx].Clone())
		for i, p := range points {
			if d := p.SqDist(centroids[len(centroids)-1]); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

func refFarthestPoint(points []tensor.Vec, centroids []tensor.Vec, assignments []int) int {
	best, bestD := 0, -1.0
	for i, p := range points {
		d := p.SqDist(centroids[assignments[i]])
		if d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

func refDaviesBouldin(points []tensor.Vec, res *KMeansResult) float64 {
	k := len(res.Centroids)
	if k <= 1 {
		return 0
	}
	scatter := make([]float64, k)
	counts := make([]int, k)
	for i, p := range points {
		c := res.Assignments[i]
		scatter[c] = refAdd(scatter[c], p.Dist(res.Centroids[c]))
		counts[c]++
	}
	live := 0
	for c := range scatter {
		if counts[c] > 0 {
			scatter[c] /= float64(counts[c])
			live++
		}
	}
	if live <= 1 {
		return 0
	}
	var sum float64
	for i := 0; i < k; i++ {
		if counts[i] == 0 {
			continue
		}
		worst := 0.0
		for j := 0; j < k; j++ {
			if j == i || counts[j] == 0 {
				continue
			}
			d := res.Centroids[i].Dist(res.Centroids[j])
			if d == 0 {
				continue
			}
			if ratio := (scatter[i] + scatter[j]) / d; ratio > worst {
				worst = ratio
			}
		}
		sum += worst
	}
	return sum / float64(live)
}

func refDBICurve(points []tensor.Vec, maxK, repeats int, r *rng.Source) []float64 {
	if maxK < 2 {
		maxK = 2
	}
	if maxK > len(points) {
		maxK = len(points)
	}
	if repeats < 1 {
		repeats = 1
	}
	curve := make([]float64, 0, max(maxK-1, 0))
	for k := 2; k <= maxK; k++ {
		var sum float64
		for t := 0; t < repeats; t++ {
			res, _ := refKMeans(points, k, r.Split(uint64(k*1000+t)), MaxIterations)
			sum += refDaviesBouldin(points, res.KMeansResult)
		}
		curve = append(curve, sum/float64(repeats))
	}
	return curve
}

// dbiOf is the Davies-Bouldin index of res over points, computed by the
// sweep's own code.
func dbiOf(points []tensor.Vec, res *KMeansResult) float64 {
	k := len(res.Centroids)
	s := newSweep(tensor.MatFromRows(points), k)
	for c, cent := range res.Centroids {
		copy(s.cent[c], cent)
	}
	copy(s.assign, res.Assignments)
	return s.daviesBouldin(k)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkKMeansMatches runs the flat K-Means and the reference on the same
// points and stream and fails on any differing assignment, centroid word,
// inertia word, iteration count or Davies-Bouldin word. It returns the
// reference's re-seed count.
func checkKMeansMatches(t *testing.T, points []tensor.Vec, k int, seed uint64, maxIter int) int {
	t.Helper()
	got := fitK(points, k, rng.New(seed), maxIter)
	want, reseeds := refKMeans(points, k, rng.New(seed), maxIter)
	if got.Iterations != want.Iterations {
		t.Fatalf("k=%d seed=%d: %d iterations, reference %d", k, seed, got.Iterations, want.Iterations)
	}
	if !sameBits(got.Inertia, want.Inertia) {
		t.Fatalf("k=%d seed=%d: inertia %v, reference %v", k, seed, got.Inertia, want.Inertia)
	}
	for i := range want.Assignments {
		if got.Assignments[i] != want.Assignments[i] {
			t.Fatalf("k=%d seed=%d: point %d in cluster %d, reference %d", k, seed, i, got.Assignments[i], want.Assignments[i])
		}
	}
	if len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("k=%d seed=%d: %d centroids, reference %d", k, seed, len(got.Centroids), len(want.Centroids))
	}
	for c := range want.Centroids {
		for j := range want.Centroids[c] {
			if !sameBits(got.Centroids[c][j], want.Centroids[c][j]) {
				t.Fatalf("k=%d seed=%d: centroid %d[%d] = %v, reference %v", k, seed, c, j, got.Centroids[c][j], want.Centroids[c][j])
			}
		}
	}
	if g, w := dbiOf(points, got.KMeansResult), refDaviesBouldin(points, want.KMeansResult); !sameBits(g, w) {
		t.Fatalf("k=%d seed=%d: Davies-Bouldin %v, reference %v", k, seed, g, w)
	}
	return reseeds
}

func checkCurveMatches(t *testing.T, points []tensor.Vec, maxK, repeats int, seed uint64) {
	t.Helper()
	got, err := DBICurve(points, maxK, repeats, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	want := refDBICurve(points, maxK, repeats, rng.New(seed))
	if len(got) != len(want) {
		t.Fatalf("maxK=%d: curve of %d, reference %d", maxK, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("maxK=%d: DBI at k=%d %v, reference %v", maxK, i+2, got[i], want[i])
		}
	}
}

func TestKMeansMatchesReference(t *testing.T) {
	t.Parallel()
	t.Run("blobs", func(t *testing.T) {
		for seed := uint64(1); seed <= 6; seed++ {
			r := rng.New(seed)
			points, _ := blobPoints(2+int(seed%4), 15, 5, 3, 1.5, r)
			for _, k := range []int{1, 2, 3, 7, len(points)} {
				checkKMeansMatches(t, points, k, seed*17, MaxIterations)
				checkKMeansMatches(t, points, k, seed*17, 2) // stopped before convergence
			}
			checkCurveMatches(t, points, 12, 4, seed)
		}
	})
	t.Run("duplicates", func(t *testing.T) {
		// Eight distinct label proportions, each held by several points:
		// every distance tie is broken the same way.
		r := rng.New(11)
		var points []tensor.Vec
		for i := 0; i < 40; i++ {
			v := tensor.NewVec(4)
			v[r.Intn(4)] = float64(1 + i%2)
			points = append(points, v.Normalize())
		}
		for _, k := range []int{1, 2, 4, 8, len(points)} {
			for seed := uint64(0); seed < 4; seed++ {
				checkKMeansMatches(t, points, k, seed, MaxIterations)
			}
		}
		checkCurveMatches(t, points, 10, 5, 3)
	})
	t.Run("empty-cluster-reseed", func(t *testing.T) {
		// k = n over points with duplicates: k-means++ seeds the same
		// coordinates twice, the lower centroid wins every tie, and the
		// other cluster is empty after the first assignment.
		points := []tensor.Vec{{0, 0}, {0, 0}, {0, 0}, {1, 0}, {1, 0}, {5, 5}}
		reseeds := 0
		for seed := uint64(0); seed < 16; seed++ {
			reseeds += checkKMeansMatches(t, points, len(points), seed, MaxIterations)
		}
		if reseeds == 0 {
			t.Fatal("no run re-seeded an empty cluster; the case proves nothing")
		}
		checkCurveMatches(t, points, len(points), 3, 9)
	})
	t.Run("reseed-order", func(t *testing.T) {
		// Cluster 1 is empty. Judged against cluster 0 already moved to 0.5
		// and cluster 2 still at 3, the farthest point is 10; judged against
		// cluster 2's new mean 6 it would be 2.
		points := []tensor.Vec{{0}, {1}, {2}, {10}}
		centroids := []tensor.Vec{{0}, {50}, {3}}
		assign := []int{0, 0, 2, 2}
		s := newSweep(tensor.MatFromRows(points), len(centroids))
		for c, cent := range centroids {
			copy(s.cent[c], cent)
		}
		copy(s.assign, assign)
		s.update(len(centroids))
		if refUpdate(points, centroids, assign) != 1 {
			t.Fatal("the reference re-seeded no cluster; the case proves nothing")
		}
		for c := range centroids {
			if !sameBits(s.cent[c][0], centroids[c][0]) {
				t.Fatalf("centroid %d at %v, reference %v", c, s.cent[c][0], centroids[c][0])
			}
		}
	})
	t.Run("nan-weight", func(t *testing.T) {
		// Seeded at point 0, the weights are 0, NaN, 1, 4: the NaN stops
		// Categorical's running sum from ever passing the draw u ∈ [0, 5),
		// so the second seed is the last point whatever u is. A draw that
		// skipped the NaN would pick point 2 for u < 1.
		points := []tensor.Vec{{0}, {math.NaN()}, {1}, {2}}
		below := 0
		for seed := uint64(0); seed < 64; seed++ {
			r := rng.New(seed)
			if r.Intn(len(points)) != 0 {
				continue
			}
			if r.Float64()*5 < 1 {
				below++
			}
			res, _ := refKMeans(points, 2, rng.New(seed), 0)
			if res.Centroids[1][0] != 2 {
				t.Fatalf("seed %d: reference seeded %v second", seed, res.Centroids[1][0])
			}
			checkKMeansMatches(t, points, 2, seed, 0) // the seeds themselves
			checkKMeansMatches(t, points, 2, seed, MaxIterations)
		}
		if below == 0 {
			t.Fatal("no seed drew u < 1; the case proves nothing")
		}
	})
	t.Run("one-point", func(t *testing.T) {
		checkKMeansMatches(t, []tensor.Vec{{0.25, 0.75}}, 1, 1, MaxIterations)
		checkCurveMatches(t, []tensor.Vec{{0.25, 0.75}}, 4, 2, 1)
	})
}

// FuzzKMeansFlat drives the flat sweep and the per-point reference with the
// same points, k and stream: a small lattice of coordinates (ties and
// duplicates everywhere) or, with raw set, arbitrary float bit patterns.
func FuzzKMeansFlat(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(3), uint8(4), false, []byte("flips k-means"))
	f.Add(uint64(7), uint8(6), uint8(2), uint8(6), false, []byte{0, 0, 0, 0, 1, 0, 1, 0, 5, 5})
	f.Add(uint64(3), uint8(9), uint8(2), uint8(3), true, []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 1})
	f.Add(uint64(0), uint8(3), uint8(2), uint8(68), true, []byte("0\xff\xff\xff\x7f00")) // NaNs of four payloads meet in the inertia
	f.Fuzz(func(t *testing.T, seed uint64, n, dim, k uint8, raw bool, data []byte) {
		np, d := 1+int(n%32), 1+int(dim%6)
		kk := 1 + int(k)%np
		points := make([]tensor.Vec, np)
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		for i := range points {
			points[i] = tensor.NewVec(d)
			for j := range points[i] {
				if raw {
					var w [8]byte
					for b := range w {
						w[b] = next()
					}
					points[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
				} else {
					points[i][j] = float64(int8(next())%4) / 4
				}
			}
		}
		checkKMeansMatches(t, points, kk, seed, MaxIterations)
		checkCurveMatches(t, points, min(np, 6), 2, seed)
	})
}
