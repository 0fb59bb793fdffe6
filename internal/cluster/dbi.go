package cluster

import (
	"context"
	"fmt"
	"math"

	"flips/internal/rng"
	"flips/internal/tensor"
)

// daviesBouldin returns the Davies-Bouldin index of the clustering a run
// left in the workspace: the mean over clusters of the worst-case ratio
// (s_i + s_j) / d(c_i, c_j), where s_i is the average distance of cluster
// i's members to its centroid. Lower is better. Empty clusters are skipped.
//
// The FLIPS paper uses this index as the purity metric for choosing the
// number of label-distribution clusters (Eq. 3, Figure 2).
func (s *sweep) daviesBouldin(k int) float64 {
	if k <= 1 {
		return 0
	}
	pts, d, cent, rowD := s.pts, s.dim, s.cent[:k], s.rowD
	scatter, counts := s.scatter[:k], s.counts[:k]
	clear(scatter)
	clear(counts)
	for u, i := range s.first {
		rowD[u] = pts[i*d : (i+1)*d].Dist(cent[s.assign[i]])
	}
	for i, c := range s.assign {
		scatter[c] = addLater(scatter[c], rowD[s.id[i]])
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
			dist := cent[i].Dist(cent[j])
			if dist == 0 {
				continue
			}
			if ratio := (scatter[i] + scatter[j]) / dist; ratio > worst {
				worst = ratio
			}
		}
		sum += worst
	}
	return sum / float64(live)
}

// DBICurve evaluates the mean Davies-Bouldin index for each k in [2, maxK],
// averaging `repeats` K-Means runs per k because K-Means is sensitive to
// centroid initialization (the paper averages T=20 runs, §3.1). The returned
// slice is indexed so curve[i] is the mean DBI at k = i+2. Points must share
// one dimension; the error is always nil.
func DBICurve(points []tensor.Vec, maxK, repeats int, r *rng.Source) ([]float64, error) {
	m := tensor.MatFromRows(points)
	return dbiCurve(context.Background(), newSweep(m, sweepK(m, maxK)), repeats, r)
}

// sweepK is the largest k a Davies-Bouldin sweep up to maxK fits over the
// rows of points: maxK, at least 2, at most the row count.
func sweepK(points *tensor.Mat, maxK int) int {
	return min(max(maxK, 2), points.Rows)
}

// dbiCurve is DBICurve over k in [2, len(s.cent)], every fit in the
// workspace s. It checks ctx before each (k, restart) fit and returns ctx's
// error once it is done.
func dbiCurve(ctx context.Context, s *sweep, repeats int, r *rng.Source) ([]float64, error) {
	maxK := len(s.cent)
	repeats = max(repeats, 1)
	curve := make([]float64, 0, max(maxK-1, 0))
	for k := 2; k <= maxK; k++ {
		var sum float64
		for t := 0; t < repeats; t++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			tr := *r.Split(uint64(k*1000 + t))
			s.run(k, &tr, MaxIterations)
			sum += s.daviesBouldin(k)
		}
		curve = append(curve, sum/float64(repeats))
	}
	return curve, nil
}

// ElbowK locates the paper's elbow point (Eq. 3, "the cluster size k for
// which there is a (first) sharp change in the slope of the curve") on the
// k-vs-DBI curve returned by DBICurve (curve[i] = DBI at k=i+2).
//
// The implementation uses the knee-point (max distance below the
// first-to-last chord) criterion, which is robust to the noise of repeated
// K-Means restarts, with a smallest-k tie bias: among knees within 5% of the
// best, the smallest k wins, honouring the paper's warning that large k
// overfits ("clusters generated are sparse"). Returns the chosen k (>= 2).
func ElbowK(curve []float64) int {
	if len(curve) <= 1 {
		return 2
	}
	n := len(curve)
	// Anchor the chord at the curve's peak within the first half: DBI often
	// rises briefly before decaying, and the elbow lives on the decreasing
	// segment.
	start := 0
	for i := 1; i < n/2; i++ {
		if curve[i] > curve[start] {
			start = i
		}
	}
	x0, y0 := float64(start), curve[start]
	x1, y1 := float64(n-1), curve[n-1]
	ySpan := math.Abs(y0 - y1)
	if ySpan < 1e-12 || x1 <= x0 {
		return 2 // flat or degenerate curve: no structure, smallest k wins
	}
	// Distance below the chord, in normalized units.
	dist := make([]float64, n)
	best := math.Inf(-1)
	for i := start; i < n; i++ {
		chordY := y0 + (y1-y0)*(float64(i)-x0)/(x1-x0)
		dist[i] = (chordY - curve[i]) / ySpan
		if dist[i] > best {
			best = dist[i]
		}
	}
	if best <= 0 {
		// Curve never dips below the chord (concave/linear): fall back to
		// the largest single relative drop.
		bestK, bestDrop := 2, math.Inf(-1)
		for i := 1; i < n; i++ {
			prev := math.Max(math.Abs(curve[i-1]), 1e-12)
			if drop := (curve[i-1] - curve[i]) / prev; drop > bestDrop {
				bestDrop, bestK = drop, i+2
			}
		}
		return bestK
	}
	for i := start; i < n; i++ {
		if dist[i] >= 0.95*best {
			return i + 2
		}
	}
	return 2
}

// OptimalK runs the full paper §3.1 procedure over the rows of points:
// compute the DBI curve over k in [2, maxK] with `repeats` restarts each
// (drawn from r), choose the elbow point k, and fit K-Means at k (drawn from
// fit). The sweep and the fit share one workspace, so the points' distinct
// rows are numbered once; the fit is the one a fresh workspace sized for k
// returns.
// The sweep checks ctx before each fit, and a done ctx ends it with ctx's
// error.
func OptimalK(ctx context.Context, points *tensor.Mat, maxK, repeats int, r, fit *rng.Source) (*KMeansResult, []float64, error) {
	if points.Rows == 0 {
		return nil, nil, fmt.Errorf("cluster: no points")
	}
	s := newSweep(points, sweepK(points, maxK))
	curve, err := dbiCurve(ctx, s, repeats, r)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.fit(ElbowK(curve), fit, MaxIterations)
	return res, curve, err
}
