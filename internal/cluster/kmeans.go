// Package cluster implements the clustering machinery FLIPS builds on:
// Lloyd's K-Means with k-means++ seeding, the Davies-Bouldin index, the
// elbow-point rule the paper uses to pick the optimal k (Eq. 3, Figure 2),
// and agglomerative hierarchical clustering (used by the GradClus baseline).
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

// KMeans clusters points into k groups using k-means++ seeding followed by
// Lloyd's algorithm. Points must be non-empty with uniform dimension and
// 1 <= k <= len(points).
func KMeans(points []tensor.Vec, k int, r *rng.Source) (*KMeansResult, error) {
	return kmeans(points, k, r, maxIterations)
}

// kmeans is KMeans with the Lloyd iteration cap as a parameter.
func kmeans(points []tensor.Vec, k int, r *rng.Source, maxIter int) (*KMeansResult, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if k < 1 || k > len(points) {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", k, len(points))
	}

	centroids := seedPlusPlus(points, k, r)
	assignments := make([]int, len(points))
	prevInertia := math.Inf(1)
	var inertia float64
	var iter int

	for iter = 0; iter < maxIter; iter++ {
		// Assignment step.
		inertia = 0
		for i, p := range points {
			best, bestD := 0, p.SqDist(centroids[0])
			for c := 1; c < k; c++ {
				if d := p.SqDist(centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			assignments[i] = best
			inertia += bestD
		}

		// Update step.
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
				// Re-seed empty clusters at the point farthest from its
				// centroid — the standard fix that keeps k live clusters.
				centroids[c] = points[farthestPoint(points, centroids, assignments)].Clone()
				continue
			}
			sums[c].ScaleInPlace(1 / float64(counts[c]))
			centroids[c] = sums[c]
		}

		if prevInertia-inertia <= tolerance*math.Max(prevInertia, 1) {
			break
		}
		prevInertia = inertia
	}

	// Final assignment against the last centroid update.
	inertia = 0
	for i, p := range points {
		best, bestD := 0, p.SqDist(centroids[0])
		for c := 1; c < k; c++ {
			if d := p.SqDist(centroids[c]); d < bestD {
				best, bestD = c, d
			}
		}
		assignments[i] = best
		inertia += bestD
	}

	return &KMeansResult{
		Centroids:   centroids,
		Assignments: assignments,
		Inertia:     inertia,
		Iterations:  iter + 1,
	}, nil
}

// seedPlusPlus implements k-means++ (Arthur & Vassilvitskii 2007): the first
// centroid is uniform, each subsequent centroid is sampled proportional to
// the squared distance to the nearest chosen centroid.
func seedPlusPlus(points []tensor.Vec, k int, r *rng.Source) []tensor.Vec {
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

func farthestPoint(points []tensor.Vec, centroids []tensor.Vec, assignments []int) int {
	best, bestD := 0, -1.0
	for i, p := range points {
		d := p.SqDist(centroids[assignments[i]])
		if d > bestD {
			best, bestD = i, d
		}
	}
	return best
}
