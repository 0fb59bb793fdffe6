package cluster

import (
	"fmt"
	"math"

	"flips/internal/tensor"
)

// Agglomerative performs bottom-up average-linkage (UPGMA) hierarchical
// clustering of the points down to exactly k clusters and returns per-point
// cluster assignments in [0, k). The GradClus baseline (Fraboni et al. 2021,
// as compared against by the FLIPS paper §4.1) hierarchically clusters party
// gradients with a similarity matrix; we expose the distance-matrix variant
// so callers can cluster on cosine distance of gradients.
//
// d is the workspace: the merges overwrite its entries, so a caller that
// keeps its matrix passes a copy. Each merge joins the closest active pair
// (i, j), i < j, read from the upper triangle: the first active pair if its
// distance is NaN, otherwise the smallest non-NaN distance, the lowest
// (i, j) on ties. Cluster distances are maintained with Lance-Williams
// updates: a merged cluster's distance to m is the size-weighted mean of its
// two parts' distances. Each row caches its nearest active partner, so a
// merge rescans only the rows whose partner merged or whose entry toward
// the merged cluster grew (DESIGN.md, "Exact agglomerative clustering").
func Agglomerative(d *tensor.Mat, k int) ([]int, error) {
	n := d.Rows
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if d.Cols != n {
		return nil, fmt.Errorf("cluster: distance matrix %dx%d not square", d.Rows, d.Cols)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", k, n)
	}

	// size[i] is cluster i's point count, 0 once it has merged into
	// another; its points chain from i through next to tail[i]. nn[i] is
	// row i's nearest partner (-1 for none) and nnd[i] their distance.
	size := make([]int, n)
	next := make([]int, n)
	tail := make([]int, n)
	nn := make([]int, n)
	nnd := make([]float64, n)
	for i := range size {
		size[i], next[i], tail[i] = 1, -1, i
	}
	for i := range nn {
		nn[i], nnd[i] = nearest(d, size, i)
	}

	for remaining := n; remaining > k; remaining-- {
		bi, bj := closestPair(d, size, nn, nnd)
		// Merge bj into bi.
		ni := float64(size[bi])
		nj := float64(size[bj])
		size[bi] += size[bj]
		size[bj] = 0
		next[tail[bi]], tail[bi] = bj, tail[bj]
		for m := 0; m < n; m++ {
			if size[m] == 0 || m == bi {
				continue
			}
			nd := (float64(ni*d.At(bi, m)) + float64(nj*d.At(bj, m))) / (ni + nj)
			d.Set(bi, m, nd)
			d.Set(m, bi, nd)
		}
		// Row m's upper triangle lost column bj and, for m < bi, changed
		// in column bi; row bi changed throughout.
		for m := 0; m < n; m++ {
			if size[m] == 0 {
				continue
			}
			v := d.At(m, bi)
			switch {
			case m == bi || nn[m] == bj || nn[m] == bi && !(v <= nnd[m]):
				nn[m], nnd[m] = nearest(d, size, m)
			case nn[m] == bi:
				nnd[m] = v
			case m < bi && !math.IsNaN(v) && (nn[m] < 0 || v < nnd[m] || v == nnd[m] && bi < nn[m]):
				nn[m], nnd[m] = bi, v
			}
		}
	}

	// Emit dense assignments.
	assignments := make([]int, n)
	cid := 0
	for i := 0; i < n; i++ {
		if size[i] == 0 {
			continue
		}
		for m := i; m >= 0; m = next[m] {
			assignments[m] = cid
		}
		cid++
	}
	return assignments, nil
}

// nearest returns row i's nearest active partner j > i and their distance:
// the smallest non-NaN d(i, j), the lowest j on ties, or -1 if there is
// none.
func nearest(d *tensor.Mat, size []int, i int) (int, float64) {
	best, bd := -1, 0.0
	row := d.Row(i)
	for j := i + 1; j < len(row); j++ {
		if v := row[j]; size[j] != 0 && !math.IsNaN(v) && (best < 0 || v < bd) {
			best, bd = j, v
		}
	}
	return best, bd
}

// closestPair returns the pair a scan of every active pair in (i, j) order
// picks: the first pair if its distance is NaN, since no distance is less
// than NaN; otherwise the row whose cached nearest distance is smallest, the
// lowest row on ties, and its partner. At least two clusters are active.
func closestPair(d *tensor.Mat, size, nn []int, nnd []float64) (int, int) {
	i0 := 0
	for size[i0] == 0 {
		i0++
	}
	j0 := i0 + 1
	for size[j0] == 0 {
		j0++
	}
	if math.IsNaN(d.At(i0, j0)) {
		return i0, j0
	}
	bi := -1
	for i, j := range nn {
		if size[i] != 0 && j >= 0 && (bi < 0 || nnd[i] < nnd[bi]) {
			bi = i
		}
	}
	return bi, nn[bi]
}

// CosineDistanceMatrix builds the pairwise matrix d[i][j] = 1 - cos(x_i, x_j)
// used to hierarchically cluster gradient vectors. Each point's norm is taken
// once, not once per pair.
func CosineDistanceMatrix(points []tensor.Vec) *tensor.Mat {
	n := len(points)
	norms := make([]float64, n)
	for i, p := range points {
		norms[i] = p.Norm2()
	}
	d := tensor.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := CosineDistance(points[i], points[j], norms[i], norms[j])
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return d
}

// CosineDistance is 1 - cos(a, b) given the norms na = |a| and nb = |b|; a
// zero vector has similarity 0 with every vector, so distance 1. It is
// symmetric bit for bit, since each product of the dot and the norms
// commutes.
func CosineDistance(a, b tensor.Vec, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - a.Dot(b)/(na*nb)
}
