package fl

import (
	"fmt"
	"math"
	"sort"

	"flips/internal/parallel"
	"flips/internal/tensor"
)

// Byzantine-robust aggregation folds (ISSUE 7). The chaos engine's faulty
// parties attack exactly one seam: the fold that combines local updates into
// the global delta. These folds replace the weighted average there, and like
// it they run in one pass, so every shard count and every pool width
// produces identical bits (see DESIGN.md, "Chaos engine").
//
// The robust folds are unweighted — deliberately. FedAvg's n_i weighting
// (and the async staleness discount) hands a byzantine party with a large
// claimed dataset proportional influence, which is precisely the lever the
// robust statistics literature removes: coordinate-wise median and trimmed
// mean (Yin et al., 2018) and Krum (Blanchard et al., 2017) are all defined
// over the unweighted update set.

// FoldKind selects the aggregation fold.
type FoldKind int

const (
	// FoldMean is the weighted FedAvg fold — the default and the only fold
	// that uses aggregation weights (n_i, staleness discounts).
	FoldMean FoldKind = iota
	// FoldTrimmedMean sorts each coordinate across updates, drops the
	// trimFraction tails, and averages the rest.
	FoldTrimmedMean
	// FoldMedian takes the coordinate-wise median across updates.
	FoldMedian
	// FoldKrum picks the single update minimizing the Krum score (the sum
	// of its n−f−2 smallest squared distances to the other updates) and
	// applies it alone.
	FoldKrum
)

// String names the fold kind.
func (k FoldKind) String() string {
	switch k {
	case FoldMean:
		return "mean"
	case FoldTrimmedMean:
		return "trimmed-mean"
	case FoldMedian:
		return "median"
	case FoldKrum:
		return "krum"
	default:
		return fmt.Sprintf("fold(%d)", int(k))
	}
}

// trimFraction is the fraction FoldTrimmedMean trims from EACH tail: 20%
// survives any corrupted minority below 20%.
const trimFraction = 0.2

// FoldConfig configures the aggregation fold.
type FoldConfig struct {
	// Kind selects the fold; the zero value is the weighted FedAvg mean.
	Kind FoldKind
}

// FoldByName parses a fold name: "" or "mean", "trimmed-mean", "median",
// "krum".
func FoldByName(name string) (FoldConfig, error) {
	switch name {
	case "", "mean":
		return FoldConfig{Kind: FoldMean}, nil
	case "trimmed-mean":
		return FoldConfig{Kind: FoldTrimmedMean}, nil
	case "median":
		return FoldConfig{Kind: FoldMedian}, nil
	case "krum":
		return FoldConfig{Kind: FoldKrum}, nil
	default:
		return FoldConfig{}, fmt.Errorf("fl: unknown fold %q (valid: mean, trimmed-mean, median, krum)", name)
	}
}

func (f FoldConfig) validate() error {
	switch f.Kind {
	case FoldMean, FoldTrimmedMean, FoldMedian, FoldKrum:
	default:
		return fmt.Errorf("fl: unknown fold kind %d", int(f.Kind))
	}
	return nil
}

// RobustDeltaShardedInto folds updates into dst under a robust fold, in one
// pass on the caller's goroutine. global, when non-nil, is subtracted from
// each update per coordinate (sync semantics: updates are raw trained
// parameters); nil means updates are already deltas (async semantics).
//
// Trimmed mean and median are per-coordinate: each coordinate gathers its
// update values in update order, sorts, and reduces. sort.Float64s is
// deterministic for a given input sequence, and the inputs carry no NaNs
// (non-finite updates are rejected before the fold). Krum scores the full
// vectors (ties break to the lowest update index) and copies the winner.
// pool and shards are unused; they remain only because benchmark/probes.go
// calls this signature and that directory is frozen.
func RobustDeltaShardedInto(fold FoldConfig, dst, global tensor.Vec, updates []tensor.Vec, pool *parallel.Pool, shards int) {
	if len(updates) == 0 {
		clear(dst)
		return
	}

	if fold.Kind == FoldKrum {
		win := updates[krumWinner(updates)]
		if global == nil {
			copy(dst, win)
			return
		}
		for i := range dst {
			dst[i] = win[i] - global[i]
		}
		return
	}

	n := len(updates)
	k := int(trimFraction * float64(n)) // per tail; trimFraction < 0.5 ⇒ n−2k ≥ 1
	vals := make([]float64, n)
	for i := range dst {
		for j, u := range updates {
			v := u[i]
			if global != nil {
				v -= global[i]
			}
			vals[j] = v
		}
		sort.Float64s(vals)
		switch fold.Kind {
		case FoldMedian:
			if n%2 == 1 {
				dst[i] = vals[n/2]
			} else {
				dst[i] = (vals[n/2-1] + vals[n/2]) / 2
			}
		case FoldTrimmedMean:
			var sum float64
			for _, v := range vals[k : n-k] {
				sum += v
			}
			dst[i] = sum / float64(n-2*k)
		}
	}
}

// krumWinner returns the index of the Krum-selected update: the one whose
// score — the sum of its m = n−f−2 smallest squared distances to the other
// updates — is minimal, ties broken toward the lowest index. The assumed
// byzantine count is f = max(⌊(n−3)/2⌋, 0), the largest Krum's n ≥ 2f+3
// requirement admits; tiny cohorts degrade to nearest-neighbor scoring. Distances are computed on the vectors as
// given — squared distance is translation invariant, so raw parameters and
// deltas rank identically up to rounding, and each mode uses one fixed
// formulation.
func krumWinner(updates []tensor.Vec) int {
	n := len(updates)
	if n == 1 {
		return 0
	}
	m := n - max((n-3)/2, 0) - 2
	if m < 1 {
		m = 1
	}

	// Symmetric pairwise squared distances, each computed once.
	dist := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for l := j + 1; l < n; l++ {
			d := updates[j].SqDist(updates[l])
			dist[j*n+l] = d
			dist[l*n+j] = d
		}
	}

	best, bestScore := 0, math.Inf(1)
	scratch := make([]float64, 0, n-1)
	for j := 0; j < n; j++ {
		scratch = scratch[:0]
		for l := 0; l < n; l++ {
			if l != j {
				scratch = append(scratch, dist[j*n+l])
			}
		}
		sort.Float64s(scratch)
		var score float64
		for _, d := range scratch[:m] {
			score += d
		}
		if score < bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// isFiniteVec reports whether every component of v is finite. The fold
// boundary rejects non-finite updates with it: a single NaN coordinate
// would otherwise flow through the fold and the server optimizer
// (optimizer.go, the mt/vt moment updates) and poison the global model
// permanently. x − x is +0 for every finite x, ±0 included, and NaN for ±Inf
// and NaN, so the OR of their bits is 0 exactly when v is finite: one pass
// with no branch per component, as every update that reaches the fold is.
func isFiniteVec(v tensor.Vec) bool {
	var bits uint64
	for _, x := range v {
		bits |= math.Float64bits(x - x)
	}
	return bits == 0
}
