package fl

import (
	"math"
	"testing"

	"flips/internal/chaos"
	"flips/internal/parallel"
	"flips/internal/rng"
	"flips/internal/tensor"
)

func foldInto(t *testing.T, fold FoldConfig, global tensor.Vec, updates []tensor.Vec, pool *parallel.Pool, shards int) tensor.Vec {
	t.Helper()
	if err := fold.validate(); err != nil {
		t.Fatal(err)
	}
	dim := 0
	if len(updates) > 0 {
		dim = len(updates[0])
	} else if global != nil {
		dim = len(global)
	}
	dst := tensor.NewVec(dim)
	RobustDeltaShardedInto(fold, dst, global, updates, pool, shards)
	return dst
}

func TestFoldByName(t *testing.T) {
	t.Parallel()
	for name, want := range map[string]FoldKind{
		"": FoldMean, "mean": FoldMean, "trimmed-mean": FoldTrimmedMean,
		"median": FoldMedian, "krum": FoldKrum,
	} {
		fold, err := FoldByName(name)
		if err != nil {
			t.Fatalf("FoldByName(%q): %v", name, err)
		}
		if fold.Kind != want {
			t.Errorf("FoldByName(%q) = %v, want %v", name, fold.Kind, want)
		}
		if fold.Kind.String() == "" {
			t.Errorf("FoldKind %d has no name", int(fold.Kind))
		}
	}
	if _, err := FoldByName("geometric"); err == nil {
		t.Error("unknown fold name accepted")
	}
}

func TestFoldConfigValidate(t *testing.T) {
	t.Parallel()
	if err := (FoldConfig{Kind: FoldKind(99)}).validate(); err == nil {
		t.Error("unknown fold kind accepted")
	}
	if err := (FoldConfig{Kind: FoldMedian}).validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMedianFoldValues pins coordinate-wise median values for odd and even
// cohort sizes, in both delta (global nil) and raw-parameter modes.
func TestMedianFoldValues(t *testing.T) {
	t.Parallel()
	pool := parallel.New(1)
	updates := []tensor.Vec{
		{1, 10, -3},
		{2, 20, -1},
		{300, 30, -2},
	}
	got := foldInto(t, FoldConfig{Kind: FoldMedian}, nil, updates, pool, 1)
	for i, want := range []float64{2, 20, -2} {
		if got[i] != want {
			t.Errorf("median[%d] = %v, want %v", i, got[i], want)
		}
	}

	// Even cohort: average of the two central order statistics.
	even := append(updates, tensor.Vec{4, 40, -4})
	got = foldInto(t, FoldConfig{Kind: FoldMedian}, nil, even, pool, 1)
	for i, want := range []float64{3, 25, -2.5} {
		if got[i] != want {
			t.Errorf("even median[%d] = %v, want %v", i, got[i], want)
		}
	}

	// Raw-parameter mode: subtracting global first shifts every value
	// uniformly, so the median delta is the median minus global.
	global := tensor.Vec{1, 1, 1}
	got = foldInto(t, FoldConfig{Kind: FoldMedian}, global, updates, pool, 1)
	for i, want := range []float64{1, 19, -3} {
		if got[i] != want {
			t.Errorf("rebased median[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// TestTrimmedMeanFoldValues pins the trimmed mean: with five updates and the
// default 20% per-tail trim, exactly the min and max of each coordinate drop.
func TestTrimmedMeanFoldValues(t *testing.T) {
	t.Parallel()
	pool := parallel.New(1)
	updates := []tensor.Vec{
		{1, -100},
		{2, 1},
		{3, 2},
		{4, 3},
		{1000, 4},
	}
	got := foldInto(t, FoldConfig{Kind: FoldTrimmedMean}, nil, updates, pool, 1)
	for i, want := range []float64{3, 2} {
		if got[i] != want {
			t.Errorf("trimmed[%d] = %v, want %v", i, got[i], want)
		}
	}

	// A cohort too small for the trim to drop anything (⌊0.2·4⌋ = 0)
	// degrades to the mean.
	got = foldInto(t, FoldConfig{Kind: FoldTrimmedMean}, nil, updates[:4], pool, 1)
	if want := (1.0 + 2 + 3 + 4) / 4; got[0] != want {
		t.Errorf("untruncated trimmed mean = %v, want %v", got[0], want)
	}
}

// TestKrumFoldValues pins Krum selection: three clustered updates and one far
// outlier — Krum must return a cluster member verbatim, never an average.
func TestKrumFoldValues(t *testing.T) {
	t.Parallel()
	pool := parallel.New(1)
	updates := []tensor.Vec{
		{1, 1},
		{1.1, 1},
		{1, 0.9},
		{500, -500},
	}
	got := foldInto(t, FoldConfig{Kind: FoldKrum}, nil, updates, pool, 1)
	// With n=4, f clamps to 0, m = 2: update 0's two nearest neighbors are
	// both within the cluster and it is the most central member.
	for i, want := range updates[0] {
		if got[i] != want {
			t.Errorf("krum[%d] = %v, want %v", i, got[i], want)
		}
	}

	// Raw-parameter mode subtracts global from the winner.
	global := tensor.Vec{1, 1}
	got = foldInto(t, FoldConfig{Kind: FoldKrum}, global, updates, pool, 1)
	for i := range got {
		if want := updates[0][i] - global[i]; got[i] != want {
			t.Errorf("rebased krum[%d] = %v, want %v", i, got[i], want)
		}
	}

	// Ties break to the lowest index: two identical singleton clusters.
	dup := []tensor.Vec{{5, 5}, {5, 5}}
	if w := krumWinner(dup); w != 0 {
		t.Errorf("krum tie broke to %d, want 0", w)
	}
	if w := krumWinner([]tensor.Vec{{7}}); w != 0 {
		t.Errorf("krum singleton winner %d, want 0", w)
	}
}

// TestRobustFoldShardInvariance is the unit-level bit-exactness pin for the
// robust folds: every fold must produce identical bits at every shard count
// and pool width, in both delta and raw-parameter modes.
func TestRobustFoldShardInvariance(t *testing.T) {
	t.Parallel()
	const dim, n = 257, 9
	r := rng.New(0xB057)
	updates := make([]tensor.Vec, n)
	for j := range updates {
		updates[j] = tensor.NewVec(dim)
		for i := range updates[j] {
			updates[j][i] = r.NormFloat64() * float64(j+1)
		}
	}
	global := tensor.NewVec(dim)
	for i := range global {
		global[i] = r.NormFloat64()
	}

	for _, fold := range []FoldConfig{
		{Kind: FoldTrimmedMean},
		{Kind: FoldMedian},
		{Kind: FoldKrum},
	} {
		for _, g := range []tensor.Vec{nil, global} {
			want := foldInto(t, fold, g, updates, parallel.New(1), 1)
			for _, shards := range []int{2, 3, 5, 8, 64} {
				for _, width := range []int{1, 4} {
					got := foldInto(t, fold, g, updates, parallel.New(width), shards)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("fold %v shards=%d width=%d global=%v: coordinate %d bits %#x, want %#x",
								fold.Kind, shards, width, g != nil, i,
								math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

func TestRobustFoldEmptyAndZeroShards(t *testing.T) {
	t.Parallel()
	dst := tensor.Vec{3, 4, 5}
	RobustDeltaShardedInto(FoldConfig{Kind: FoldMedian}, dst, nil, nil, parallel.New(1), 0)
	for i, v := range dst {
		if v != 0 {
			t.Errorf("empty fold left dst[%d] = %v", i, v)
		}
	}
}

func TestIsFiniteVec(t *testing.T) {
	t.Parallel()
	if !isFiniteVec(tensor.Vec{0, -1, 2.5}) {
		t.Error("finite vector rejected")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if isFiniteVec(tensor.Vec{1, bad, 2}) {
			t.Errorf("vector containing %v accepted", bad)
		}
	}
	if !isFiniteVec(nil) {
		t.Error("empty vector rejected")
	}
}

// nanInjector corrupts every odd-ID party's update to NaN. It doubles as a
// structural check that a minimal value implements the FaultInjector seam.
type nanInjector struct{}

func (n *nanInjector) ForceOffline(round, id int) bool     { return false }
func (n *nanInjector) LatencyFactor(round, id int) float64 { return 1 }
func (n *nanInjector) CohortTarget(round, target int) int  { return target }
func (n *nanInjector) Corrupts(id int) bool                { return id%2 == 1 }
func (n *nanInjector) CorruptDelta(round, id int, delta tensor.Vec) {
	delta[0] = math.NaN()
}

// TestNaNUpdateRejectedAtFoldBoundary is the ISSUE 7 poisoning regression:
// half the fleet reports NaN deltas every round, and before the fold-boundary
// guard a single such coordinate would reach the Yogi moments and turn the
// global model — and every subsequent accuracy — into NaN. The run must
// stay finite and count the rejections in RoundStats.
func TestNaNUpdateRejectedAtFoldBoundary(t *testing.T) {
	t.Parallel()
	for _, mode := range []struct {
		name string
		agg  AggregationPolicy
	}{
		{"sync", nil},
		{"buffered", Buffered{K: 3, StalenessHalfLife: 2}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			cfg := goldenDeviceConfig(t)
			cfg.Aggregation = mode.agg
			cfg.Deadline = 0
			cfg.Faults = &nanInjector{}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !isFiniteVec(res.FinalParams) {
				t.Fatal("NaN update reached the global model")
			}
			rejected := 0
			for _, h := range res.History {
				if math.IsNaN(h.Accuracy) {
					t.Fatalf("round %d accuracy is NaN", h.Round)
				}
				rejected += h.Rejected
			}
			if rejected == 0 {
				t.Fatal("poisoned updates were never counted as rejected")
			}
		})
	}
}

// TestChaosInjectorSatisfiesSeam pins the structural contract between the
// engine seam and the chaos package (which cannot import fl).
var _ FaultInjector = (*chaos.Injector)(nil)

// TestChaosRunIsDeterministic drives a full chaos scenario — outages,
// brownouts, a flash crowd and byzantine parties — through the engine twice
// and at parallelism 8, requiring identical results. This is the
// integration-level determinism pin for the injector's pure-function
// contract.
func TestChaosRunIsDeterministic(t *testing.T) {
	t.Parallel()
	mk := func(parallelism int) Config {
		cfg := goldenDeviceConfig(t)
		cfg.Fold = FoldConfig{Kind: FoldTrimmedMean}
		inj, err := chaos.New(chaos.Spec{
			Seed:          7,
			Regions:       4,
			OutageProb:    0.3,
			OutageLen:     2,
			DegradedProb:  0.2,
			SurgeEvery:    3,
			SurgeFactor:   2,
			FaultFraction: 0.25,
			Fault:         chaos.FaultByzantine,
			FaultScale:    5,
		}, len(cfg.Parties))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
		cfg.Parallelism = parallelism
		return cfg
	}
	a, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk(8))
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, a, b)
}
