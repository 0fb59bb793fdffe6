// Package cluster implements the clustering machinery FLIPS builds on: the
// paper's §3.1 procedure (OptimalK: a Davies-Bouldin curve over Lloyd's
// K-Means with k-means++ seeding, the elbow-point rule that picks k from it,
// Eq. 3 and Figure 2, and the fit at that k), and agglomerative hierarchical
// clustering (used by the GradClus baseline). K-Means runs only inside the
// sweep (DBICurve, OptimalK): no caller fits a k of its own choosing.
//
// The sweep runs on the rows of one row-major tensor.Mat and keeps its state
// in one workspace, sized for the largest k and reused by every Lloyd
// iteration, restart and k, the final fit included. The workspace measures
// each distinct row once per pass and reads the result per point through the
// row's number (DESIGN.md, "The distinct-row sweep").
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"flips/internal/rng"
	"flips/internal/tensor"
)

// KMeansResult holds the outcome of a K-Means run.
type KMeansResult struct {
	// Centroids has length K.
	Centroids []tensor.Vec
	// Assignments maps each input point to its cluster in [0, K).
	Assignments []int
}

// Clusters groups point indices by cluster id.
func (res *KMeansResult) Clusters() [][]int {
	out := make([][]int, len(res.Centroids))
	for i, c := range res.Assignments {
		out[c] = append(out[c], i)
	}
	return out
}

// Lloyd's iteration stops after MaxIterations, or earlier once the inertia
// improves by less than the fraction tolerance of its previous value.
// MaxIterations also bounds a job's clustering work before it is built.
const (
	MaxIterations = 100
	tolerance     = 1e-6
)

// fit is one K-Means run in the workspace, its result holding the
// workspace's centroids and assignment. k must fit the workspace.
func (s *sweep) fit(k int, r *rng.Source, maxIter int) (*KMeansResult, error) {
	if k < 1 || k > len(s.cent) {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", k, len(s.cent))
	}
	s.run(k, r, maxIter)
	return &KMeansResult{Centroids: s.cent[:k], Assignments: s.assign}, nil
}

// sweep is the workspace of K-Means runs over the rows of one matrix, for
// any k up to len(cent). A run leaves its clustering in cent[:k] and assign.
//
// Points whose rows are equal word for word get equal distances, so every
// distance is measured once per distinct row (first[u], in order of first
// occurrence) into a per-row slot, and each point reads its row's slot
// through id. What sums over points — cluster sums, inertia, the k-means++
// weights, the Davies-Bouldin scatter — still adds per point in index order,
// and a sum that meets two NaNs keeps the later one (addLater), so every
// result is bit-equal to measuring each point.
// A pass costs O(U·k·d + N·d) for U distinct rows of N points, not O(N·k·d).
type sweep struct {
	pts        tensor.Vec // the points, row-major
	dim        int
	id         []int32      // each point's distinct row
	first      []int        // each distinct row's first point, ascending
	cent, sums []tensor.Vec // row views of two maxK x dim matrices
	counts     []int
	assign     []int
	rowD       []float64 // per distinct row: a distance of this pass
	rowC       []int     // per distinct row: its nearest centroid
	d2         []float64 // k-means++: each point's squared distance to its nearest seed
	scatter    []float64 // Davies-Bouldin: each cluster's mean member distance
}

func newSweep(points *tensor.Mat, maxK int) *sweep {
	id, first := distinctRows(points)
	return &sweep{
		pts:     points.Data,
		dim:     points.Cols,
		id:      id,
		first:   first,
		cent:    rowViews(tensor.NewMat(maxK, points.Cols)),
		sums:    rowViews(tensor.NewMat(maxK, points.Cols)),
		counts:  make([]int, maxK),
		assign:  make([]int, points.Rows),
		rowD:    make([]float64, len(first)),
		rowC:    make([]int, len(first)),
		d2:      make([]float64, points.Rows),
		scatter: make([]float64, maxK),
	}
}

// distinctRows numbers the distinct rows of points in order of first
// occurrence: id[i] is row i's number and first[u] the first row numbered u.
// Two rows are the same when their words are bit for bit equal, so rows are
// keyed by their words' bytes.
func distinctRows(points *tensor.Mat) (id []int32, first []int) {
	d := points.Cols
	id = make([]int32, points.Rows)
	seen := make(map[string]int32)
	key := make([]byte, 8*d)
	for i := range id {
		for j, v := range points.Data[i*d : (i+1)*d] {
			binary.LittleEndian.PutUint64(key[8*j:], math.Float64bits(v))
		}
		u, ok := seen[string(key)]
		if !ok {
			u = int32(len(first))
			first = append(first, i)
			seen[string(key)] = u
		}
		id[i] = u
	}
	return id, first
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
// the squared distance to the nearest chosen centroid. Each point's squared
// distance to its nearest seed is its row's slot of rowD, spread to d2 in
// point order before each draw, which is Categorical's through its
// branchless loops: d2 is zero at every point a seed covers, scattered among
// the positive ones. Once no row's distance is positive (every distinct row
// holds a seed), Categorical would draw one Intn(len(d2)), so the draw is
// that Intn, without the spread.
func (s *sweep) seedPlusPlus(k int, r *rng.Source) {
	pts, d, rowD, d2 := s.pts, s.dim, s.rowD, s.d2
	i0 := r.Intn(len(d2))
	copy(s.cent[0], pts[i0*d:(i0+1)*d])
	for u, i := range s.first {
		rowD[u] = pts[i*d : (i+1)*d].SqDist(s.cent[0])
	}
	for c := 1; c < k; c++ {
		cent := s.cent[c]
		var ic int
		if slices.ContainsFunc(rowD, func(w float64) bool { return w > 0 }) {
			for i, u := range s.id {
				d2[i] = rowD[u]
			}
			ic = r.CategoricalBranchless(d2)
		} else {
			ic = r.Intn(len(d2))
		}
		copy(cent, pts[ic*d:(ic+1)*d])
		for u, i := range s.first {
			if dd := pts[i*d : (i+1)*d].SqDist(cent); dd < rowD[u] {
				rowD[u] = dd
			}
		}
	}
}

// assignAll assigns every point to its nearest centroid, ties to the lower
// index, and returns the inertia, summed in point order.
func (s *sweep) assignAll(k int) float64 {
	pts, d, cent, rowD, rowC := s.pts, s.dim, s.cent[:k], s.rowD, s.rowC
	for u, i := range s.first {
		p := pts[i*d : (i+1)*d]
		best, bestD := 0, p.SqDist(cent[0])
		for c := 1; c < k; c++ {
			if dd := p.SqDist(cent[c]); dd < bestD {
				best, bestD = c, dd
			}
		}
		rowC[u], rowD[u] = best, bestD
	}
	var inertia float64
	for i, u := range s.id {
		s.assign[i] = rowC[u]
		inertia = addLater(inertia, rowD[u])
	}
	return inertia
}

// addLater returns sum + x, with x's NaN, quieted, when both are NaN. Which
// NaN a plain add keeps is the compiler's choice of operand order, and it
// differs between builds (DESIGN.md, "The distinct-row sweep"), so the
// sweep's point-order distance sums fix it to the later operand.
func addLater(sum, x float64) float64 {
	if x != x {
		return x + 0
	}
	return sum + x
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
// assigned centroid. Copies of a row share its assignment and distance, and
// distinct rows are scanned in order of first occurrence, so the first
// occurrence found is the lowest-index point of that distance.
func (s *sweep) farthestPoint() int {
	pts, d := s.pts, s.dim
	best, bestD := 0, -1.0
	for _, i := range s.first {
		if dd := pts[i*d : (i+1)*d].SqDist(s.cent[s.assign[i]]); dd > bestD {
			best, bestD = i, dd
		}
	}
	return best
}
