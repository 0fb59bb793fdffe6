package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"flips/internal/rng"
	"flips/internal/tensor"
)

// blobPoints generates k well-separated Gaussian blobs of perCluster points.
func blobPoints(k, perCluster, dim int, sep, noise float64, r *rng.Source) ([]tensor.Vec, []int) {
	centers := make([]tensor.Vec, k)
	for c := range centers {
		v := tensor.NewVec(dim)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		n := v.Norm2()
		if n > 0 {
			v.ScaleInPlace(sep / n)
		}
		centers[c] = v
	}
	var points []tensor.Vec
	var truth []int
	for c := 0; c < k; c++ {
		for i := 0; i < perCluster; i++ {
			p := centers[c].Clone()
			for j := range p {
				p[j] += noise * r.NormFloat64()
			}
			points = append(points, p)
			truth = append(truth, c)
		}
	}
	return points, truth
}

func TestKMeansRecoversBlobs(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	points, truth := blobPoints(4, 50, 8, 20, 0.5, r)
	res, err := KMeans(points, 4, r.Split(9), KMeansOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Check purity: each found cluster should be dominated by one true blob.
	for _, members := range res.Clusters() {
		if len(members) == 0 {
			t.Fatal("empty cluster on well-separated blobs")
		}
		counts := map[int]int{}
		for _, m := range members {
			counts[truth[m]]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		if purity := float64(max) / float64(len(members)); purity < 0.95 {
			t.Fatalf("cluster purity %v too low", purity)
		}
	}
}

func TestKMeansValidation(t *testing.T) {
	t.Parallel()
	r := rng.New(2)
	if _, err := KMeans(nil, 1, r, KMeansOptions{}); err == nil {
		t.Fatal("expected error for empty points")
	}
	pts := []tensor.Vec{{1}, {2}}
	if _, err := KMeans(pts, 0, r, KMeansOptions{}); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := KMeans(pts, 3, r, KMeansOptions{}); err == nil {
		t.Fatal("expected error for k>n")
	}
}

func TestKMeansK1(t *testing.T) {
	t.Parallel()
	r := rng.New(3)
	points, _ := blobPoints(2, 20, 4, 5, 1, r)
	res, err := KMeans(points, 1, r, KMeansOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Single centroid must be the mean of all points.
	mean := tensor.NewVec(4)
	for _, p := range points {
		mean.AddInPlace(p)
	}
	mean.ScaleInPlace(1 / float64(len(points)))
	if res.Centroids[0].Dist(mean) > 1e-9 {
		t.Fatalf("k=1 centroid deviates from mean by %v", res.Centroids[0].Dist(mean))
	}
}

func TestKMeansAssignmentsNearest(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := rng.New(seed)
		k := 2 + r.Intn(4)
		points, _ := blobPoints(k, 10+r.Intn(10), 3, 8, 1, r)
		res, err := KMeans(points, k, r, KMeansOptions{})
		if err != nil {
			return false
		}
		// Invariant: every point is assigned to its nearest centroid.
		for i, p := range points {
			assigned := p.SqDist(res.Centroids[res.Assignments[i]])
			for _, c := range res.Centroids {
				if p.SqDist(c) < assigned-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	t.Parallel()
	r := rng.New(5)
	points, _ := blobPoints(3, 30, 6, 10, 1, r)
	a, err := KMeans(points, 3, rng.New(77), KMeansOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(points, 3, rng.New(77), KMeansOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignment %d differs across identical runs", i)
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatal("inertia differs across identical runs")
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	t.Parallel()
	r := rng.New(6)
	points, _ := blobPoints(5, 20, 4, 10, 1.5, r)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 5, 10} {
		// Take the best of a few restarts so the comparison is meaningful.
		best := math.Inf(1)
		for trial := 0; trial < 5; trial++ {
			res, err := KMeans(points, k, r.Split(uint64(k*100+trial)), KMeansOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Inertia < best {
				best = res.Inertia
			}
		}
		if best > prev+1e-9 {
			t.Fatalf("best inertia at k=%d (%v) exceeds smaller k (%v)", k, best, prev)
		}
		prev = best
	}
}

func TestDaviesBouldinPrefersTrueK(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	trueK := 5
	points, _ := blobPoints(trueK, 40, 6, 25, 0.5, r)
	dbiAt := func(k int) float64 {
		best := math.Inf(1)
		for trial := 0; trial < 5; trial++ {
			res, err := KMeans(points, k, r.Split(uint64(k*31+trial)), KMeansOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if d := DaviesBouldin(points, res); d < best {
				best = d
			}
		}
		return best
	}
	atTrue := dbiAt(trueK)
	atHalf := dbiAt(2)
	if atTrue >= atHalf {
		t.Fatalf("DBI at true k (%v) should beat DBI at k=2 (%v)", atTrue, atHalf)
	}
}

func TestDaviesBouldinDegenerate(t *testing.T) {
	t.Parallel()
	points := []tensor.Vec{{1, 1}, {2, 2}}
	res, err := KMeans(points, 1, rng.New(1), KMeansOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := DaviesBouldin(points, res); d != 0 {
		t.Fatalf("single-cluster DBI should be 0, got %v", d)
	}
}

func TestElbowKFindsSharpDrop(t *testing.T) {
	t.Parallel()
	// Synthetic curve: big improvement up to k=6, flat afterwards.
	curve := []float64{1.0, 0.9, 0.85, 0.8, 0.3, 0.29, 0.28, 0.28}
	// curve[i] is k=i+2, so the sharp drop happens at k=6 (index 4).
	if k := ElbowK(curve); k != 6 {
		t.Fatalf("elbow at k=%d, want 6", k)
	}
}

func TestElbowKDegenerate(t *testing.T) {
	t.Parallel()
	if k := ElbowK(nil); k != 2 {
		t.Fatalf("empty curve elbow %d", k)
	}
	if k := ElbowK([]float64{0.5}); k != 2 {
		t.Fatalf("single-point curve elbow %d", k)
	}
}

func TestOptimalKOnBlobs(t *testing.T) {
	t.Parallel()
	r := rng.New(8)
	trueK := 6
	points, _ := blobPoints(trueK, 30, 5, 30, 0.3, r)
	k, curve, err := OptimalK(points, 15, 5, r.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 14 {
		t.Fatalf("curve length %d", len(curve))
	}
	if k < trueK-1 || k > trueK+1 {
		t.Fatalf("optimal k=%d not near true k=%d (curve %v)", k, trueK, curve)
	}
}

// euclideanDistanceMatrix is the pairwise distance matrix the Agglomerative
// tests cluster on (production callers pass CosineDistanceMatrix).
func euclideanDistanceMatrix(points []tensor.Vec) *tensor.Mat {
	n := len(points)
	d := tensor.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := points[i].Dist(points[j])
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return d
}

func TestAgglomerativeRecoversBlobs(t *testing.T) {
	t.Parallel()
	r := rng.New(9)
	points, truth := blobPoints(3, 20, 5, 25, 0.5, r)
	d := euclideanDistanceMatrix(points)
	for _, linkage := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage} {
		assign, err := Agglomerative(d, 3, linkage)
		if err != nil {
			t.Fatal(err)
		}
		// All members of the same true blob should share a cluster id.
		for c := 0; c < 3; c++ {
			var want = -1
			for i, tc := range truth {
				if tc != c {
					continue
				}
				if want == -1 {
					want = assign[i]
				} else if assign[i] != want {
					t.Fatalf("linkage %v: blob %d split across clusters", linkage, c)
				}
			}
		}
	}
}

func TestAgglomerativeValidation(t *testing.T) {
	t.Parallel()
	d := euclideanDistanceMatrix([]tensor.Vec{{1}, {2}})
	if _, err := Agglomerative(d, 0, AverageLinkage); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := Agglomerative(d, 3, AverageLinkage); err == nil {
		t.Fatal("expected error for k>n")
	}
	bad := tensor.NewMat(2, 3)
	if _, err := Agglomerative(bad, 1, AverageLinkage); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
	if _, err := Agglomerative(tensor.NewMat(0, 0), 1, AverageLinkage); err == nil {
		t.Fatal("expected error for empty matrix")
	}
}

func TestAgglomerativeAssignmentsDense(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(20)
		points := make([]tensor.Vec, n)
		for i := range points {
			points[i] = tensor.Vec{r.NormFloat64(), r.NormFloat64()}
		}
		k := 1 + r.Intn(n)
		assign, err := Agglomerative(euclideanDistanceMatrix(points), k, AverageLinkage)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, a := range assign {
			if a < 0 || a >= k {
				return false
			}
			seen[a] = true
		}
		return len(seen) == k
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCosineDistanceMatrix(t *testing.T) {
	t.Parallel()
	pts := []tensor.Vec{{1, 0}, {0, 1}, {2, 0}}
	d := CosineDistanceMatrix(pts)
	if d.At(0, 2) > 1e-12 {
		t.Fatalf("parallel vectors distance %v", d.At(0, 2))
	}
	if math.Abs(d.At(0, 1)-1) > 1e-12 {
		t.Fatalf("orthogonal vectors distance %v", d.At(0, 1))
	}
	if d.At(1, 0) != d.At(0, 1) {
		t.Fatal("matrix not symmetric")
	}
}

func TestKMeansInertiaNonIncreasingAcrossIterations(t *testing.T) {
	t.Parallel()
	// DESIGN.md invariant: Lloyd iterations never increase the objective.
	// Run K-Means with increasing iteration caps on identical seeds; the
	// final inertia must be non-increasing in the cap.
	r := rng.New(21)
	points, _ := blobPoints(4, 40, 6, 6, 2.0, r)
	prev := math.Inf(1)
	for iters := 1; iters <= 12; iters++ {
		res, err := KMeans(points, 4, rng.New(99), KMeansOptions{MaxIterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev+1e-9 {
			t.Fatalf("inertia rose from %v to %v at cap %d", prev, res.Inertia, iters)
		}
		prev = res.Inertia
	}
}
