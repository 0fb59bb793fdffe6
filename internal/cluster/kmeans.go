// Package cluster implements the clustering machinery FLIPS builds on:
// Lloyd's K-Means with k-means++ seeding, the Davies-Bouldin index, the
// elbow-point rule the paper uses to pick the optimal k (Eq. 3, Figure 2),
// and agglomerative hierarchical clustering (used by the GradClus baseline).
//
// K-Means and the Davies-Bouldin sweep run on the rows of one row-major
// tensor.Mat and keep their state in one sweep workspace, sized for the
// largest k and reused by every Lloyd iteration, restart and k.
package cluster

import (
	"fmt"
	"math"

	"flips/internal/rng"
	"flips/internal/tensor"
)

// KMeansResult holds the outcome of a K-Means run.
type KMeansResult struct {
	// Centroids has length K.
	Centroids []tensor.Vec
	// Assignments maps each input point to its cluster in [0, K).
	Assignments []int
	// Inertia is the sum of squared distances of points to their centroid
	// (the K-Means objective, Eq. 2 of the paper).
	Inertia float64
	// Iterations is how many Lloyd iterations ran before convergence.
	Iterations int
}

// Clusters groups point indices by cluster id.
func (res *KMeansResult) Clusters() [][]int {
	out := make([][]int, len(res.Centroids))
	for i, c := range res.Assignments {
		out[c] = append(out[c], i)
	}
	return out
}

// Lloyd's iteration stops after maxIterations, or earlier once the inertia
// improves by less than the fraction tolerance of its previous value.
const (
	maxIterations = 100
	tolerance     = 1e-6
)

// KMeans clusters the rows of points into k groups using k-means++ seeding
// followed by Lloyd's algorithm. Points must be non-empty and
// 1 <= k <= points.Rows.
func KMeans(points *tensor.Mat, k int, r *rng.Source) (*KMeansResult, error) {
	return kmeans(points, k, r, maxIterations)
}

// kmeans is KMeans with the Lloyd iteration cap as a parameter.
func kmeans(points *tensor.Mat, k int, r *rng.Source, maxIter int) (*KMeansResult, error) {
	if points.Rows == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if k < 1 || k > points.Rows {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", k, points.Rows)
	}
	s := newSweep(points, k)
	inertia, iters := s.run(k, r, maxIter)
	return &KMeansResult{
		Centroids:   s.cent,
		Assignments: s.assign,
		Inertia:     inertia,
		Iterations:  iters,
	}, nil
}

// sweep is the workspace of K-Means runs over the rows of one matrix, for
// any k up to len(cent). A run leaves its clustering in cent[:k] and assign.
// The hot loops slice point i as pts[i*dim:(i+1)*dim] from locals and reach
// centroids through row views, so no field is reloaded after each distance
// call.
type sweep struct {
	pts        tensor.Vec // the points, row-major
	dim        int
	cent, sums []tensor.Vec // row views of two maxK x dim matrices
	counts     []int
	assign     []int
	d2         []float64 // k-means++: each point's squared distance to its nearest seed
	scatter    []float64 // Davies-Bouldin: each cluster's mean member distance
}

func newSweep(points *tensor.Mat, maxK int) *sweep {
	return &sweep{
		pts:     points.Data,
		dim:     points.Cols,
		cent:    rowViews(tensor.NewMat(maxK, points.Cols)),
		sums:    rowViews(tensor.NewMat(maxK, points.Cols)),
		counts:  make([]int, maxK),
		assign:  make([]int, points.Rows),
		d2:      make([]float64, points.Rows),
		scatter: make([]float64, maxK),
	}
}

func rowViews(m *tensor.Mat) []tensor.Vec {
	rows := make([]tensor.Vec, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// run is one K-Means fit with 1 <= k <= len(assign): k-means++ seeding,
// Lloyd iterations until the inertia stalls or maxIter passes ran, and a
// final assignment against the last update. It returns that assignment's
// inertia and the iteration count.
func (s *sweep) run(k int, r *rng.Source, maxIter int) (float64, int) {
	s.seedPlusPlus(k, r)
	prevInertia := math.Inf(1)
	var iter int
	for iter = 0; iter < maxIter; iter++ {
		inertia := s.assignAll(k)
		s.update(k)
		if prevInertia-inertia <= tolerance*math.Max(prevInertia, 1) {
			break
		}
		prevInertia = inertia
	}
	return s.assignAll(k), iter + 1
}

// seedPlusPlus implements k-means++ (Arthur & Vassilvitskii 2007): the first
// centroid is uniform, each subsequent centroid is sampled proportional to
// the squared distance to the nearest chosen centroid.
func (s *sweep) seedPlusPlus(k int, r *rng.Source) {
	pts, d, d2 := s.pts, s.dim, s.d2
	i0 := r.Intn(len(d2))
	copy(s.cent[0], pts[i0*d:(i0+1)*d])
	for i := range d2 {
		d2[i] = pts[i*d : (i+1)*d].SqDist(s.cent[0])
	}
	for c := 1; c < k; c++ {
		cent := s.cent[c]
		ic := r.Categorical(d2)
		copy(cent, pts[ic*d:(ic+1)*d])
		for i := range d2 {
			if dd := pts[i*d : (i+1)*d].SqDist(cent); dd < d2[i] {
				d2[i] = dd
			}
		}
	}
}

// assignAll assigns every point to its nearest centroid, ties to the lower
// index, and returns the inertia, summed in point order.
func (s *sweep) assignAll(k int) float64 {
	pts, d, cent, assign := s.pts, s.dim, s.cent[:k], s.assign
	var inertia float64
	for i := range assign {
		p := pts[i*d : (i+1)*d]
		best, bestD := 0, p.SqDist(cent[0])
		for c := 1; c < k; c++ {
			if dd := p.SqDist(cent[c]); dd < bestD {
				best, bestD = c, dd
			}
		}
		assign[i] = best
		inertia += bestD
	}
	return inertia
}

// update moves each centroid to its members' mean: their sum in point order
// times 1/count. A cluster left empty is re-seeded at the point farthest from
// its centroid — the standard fix that keeps k live clusters — judged against
// the centroids this pass already moved (below c) and the ones it has not
// (from c on).
func (s *sweep) update(k int) {
	pts, d, counts := s.pts, s.dim, s.counts[:k]
	for c := range counts {
		clear(s.sums[c])
		counts[c] = 0
	}
	for i, c := range s.assign {
		s.sums[c].AddInPlace(pts[i*d : (i+1)*d])
		counts[c]++
	}
	for c, cent := range s.cent[:k] {
		if counts[c] == 0 {
			far := s.farthestPoint()
			copy(cent, pts[far*d:(far+1)*d])
			continue
		}
		inv := 1 / float64(counts[c])
		for j, v := range s.sums[c] {
			cent[j] = v * inv
		}
	}
}

// farthestPoint returns the first point of greatest squared distance to its
// assigned centroid.
func (s *sweep) farthestPoint() int {
	pts, d := s.pts, s.dim
	best, bestD := 0, -1.0
	for i, c := range s.assign {
		if dd := pts[i*d : (i+1)*d].SqDist(s.cent[c]); dd > bestD {
			best, bestD = i, dd
		}
	}
	return best
}
