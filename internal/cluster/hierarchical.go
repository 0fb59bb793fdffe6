package cluster

import (
	"fmt"

	"flips/internal/tensor"
)

// Linkage selects how inter-cluster distance is computed during
// agglomerative merging.
type Linkage int

const (
	// AverageLinkage merges by mean pairwise distance (UPGMA).
	AverageLinkage Linkage = iota + 1
	// SingleLinkage merges by minimum pairwise distance.
	SingleLinkage
	// CompleteLinkage merges by maximum pairwise distance.
	CompleteLinkage
)

// Agglomerative performs bottom-up hierarchical clustering of the points
// down to exactly k clusters and returns per-point cluster assignments in
// [0, k). The GradClus baseline (Fraboni et al. 2021, as compared against by
// the FLIPS paper §4.1) hierarchically clusters party gradients with a
// similarity matrix; we expose the distance-matrix variant so callers can
// cluster on cosine distance of gradients.
func Agglomerative(dist *tensor.Mat, k int, linkage Linkage) ([]int, error) {
	n := dist.Rows
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if dist.Cols != n {
		return nil, fmt.Errorf("cluster: distance matrix %dx%d not square", dist.Rows, dist.Cols)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", k, n)
	}

	// active[i] reports whether cluster i still exists; members[i] lists its
	// point indices. Cluster distances are maintained with Lance-Williams
	// updates for the chosen linkage.
	active := make([]bool, n)
	members := make([][]int, n)
	d := dist.Clone()
	for i := 0; i < n; i++ {
		active[i] = true
		members[i] = []int{i}
	}

	remaining := n
	for remaining > k {
		// Find the closest active pair (deterministic tie-break: lowest ids).
		bi, bj, best := -1, -1, 0.0
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				dij := d.At(i, j)
				if bi == -1 || dij < best {
					bi, bj, best = i, j, dij
				}
			}
		}
		// Merge bj into bi.
		ni := float64(len(members[bi]))
		nj := float64(len(members[bj]))
		for m := 0; m < n; m++ {
			if !active[m] || m == bi || m == bj {
				continue
			}
			var nd float64
			switch linkage {
			case SingleLinkage:
				nd = minF(d.At(bi, m), d.At(bj, m))
			case CompleteLinkage:
				nd = maxF(d.At(bi, m), d.At(bj, m))
			default: // AverageLinkage
				nd = (ni*d.At(bi, m) + nj*d.At(bj, m)) / (ni + nj)
			}
			d.Set(bi, m, nd)
			d.Set(m, bi, nd)
		}
		members[bi] = append(members[bi], members[bj]...)
		members[bj] = nil
		active[bj] = false
		remaining--
	}

	// Emit dense assignments.
	assignments := make([]int, n)
	cid := 0
	for i := 0; i < n; i++ {
		if !active[i] {
			continue
		}
		for _, m := range members[i] {
			assignments[m] = cid
		}
		cid++
	}
	return assignments, nil
}

// CosineDistanceMatrix builds the pairwise matrix d[i][j] = 1 - cos(x_i, x_j)
// used to hierarchically cluster gradient vectors.
func CosineDistanceMatrix(points []tensor.Vec) *tensor.Mat {
	n := len(points)
	d := tensor.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 1 - points[i].CosineSim(points[j])
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return d
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
