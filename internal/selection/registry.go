package selection

import (
	"context"
	"fmt"
	"strings"

	"flips/internal/core"
	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// BuildContext carries everything a selector builder may need. The signal
// accessors are closures so a context costs nothing to assemble: a builder
// that never calls LabelDists never pays for label-distribution extraction,
// and — critically for reproducibility — assembling a context consumes no
// randomness, so a strategy's RNG draws are exactly the draws its builder
// makes.
type BuildContext struct {
	// Context stops a builder's long work (the FLIPS clustering sweep checks
	// it between K-Means fits); nil never stops it.
	Context context.Context
	// NumParties is the population size N.
	NumParties int
	// ParamDim is the model parameter count (gradient dimensionality for
	// the update-driven strategies).
	ParamDim int
	// RNG seeds the selector. Builders that need independent streams split
	// it; builders must not assume exclusive ownership of the parent.
	RNG *rng.Source
	// DataSizes returns per-party sample counts |B_i| (Oort's statistical
	// weight). May be nil: strategies fall back to uniform sizes.
	DataSizes func() []int
	// Latencies returns per-party expected round durations (TiFL's tiering
	// signal). Required by latency-tiered strategies.
	Latencies func() []float64
	// LabelDists returns per-party normalized label distributions (the
	// FLIPS clustering input). Required by cluster-based strategies.
	LabelDists func() []tensor.Vec
	// Deadline is the per-round reporting deadline in simulated seconds the
	// deadline-aware strategies steer toward; 0 means none is configured
	// and they adapt to the observed mean round duration instead.
	Deadline float64
	// CandidateFactor is the power-of-choice candidate over-sampling ratio
	// d/Nr; 0 keeps the historical default of 2. Values in (0, 1) are
	// rejected at build time.
	CandidateFactor float64
}

// ResolveCandidateFactor applies the power-of-choice candidate-factor rule:
// 0 is the default of 2, a factor of at least 1 is used as given, anything
// else is refused.
func ResolveCandidateFactor(f float64) (float64, error) {
	switch {
	case f == 0:
		return 2, nil
	case f >= 1:
		return f, nil
	}
	return 0, fmt.Errorf("selection: power-of-choice candidate factor %v must be 0 (default 2) or >= 1", f)
}

// Builder constructs a selector from a build context. The second return
// value carries the party clusters for cluster-based strategies (nil for
// everything else) — the FLIPS pipeline reports cluster counts and the
// ablation benches reuse them.
type Builder func(ctx BuildContext) (fl.Selector, [][]int, error)

// entry is one registry row.
type entry struct {
	name  string
	build Builder
}

// registry is the one ordered table of built-in strategies. Its order is the
// canonical strategy order every consumer (strategy lists, tournament arms,
// property suites) sees: the paper's five comparisons first (matching
// experiment.AllStrategies), then the extension baselines, then the scored,
// deadline-aware and diversity families.
var registry = []entry{
	{"random", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		return NewRandom(ctx.NumParties, ctx.RNG), nil, nil
	}},
	{"flips", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		clusters, err := labelClusters("flips", ctx)
		if err != nil {
			return nil, nil, err
		}
		sel, err := core.NewSelector(clusters)
		if err != nil {
			return nil, nil, err
		}
		return sel, clusters, nil
	}},
	{"oort", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		var sizes []int
		if ctx.DataSizes != nil {
			sizes = ctx.DataSizes()
		}
		return newOort(ctx.NumParties, sizes, scaleModeThreshold, ctx.RNG), nil, nil
	}},
	{"gradclus", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		return newGradClus(ctx.NumParties, ctx.ParamDim, scaleModeThreshold, ctx.RNG), nil, nil
	}},
	{"tifl", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		if ctx.Latencies == nil {
			return nil, nil, fmt.Errorf("selection: selector %q needs per-party latencies", "tifl")
		}
		return newTiFL(ctx.Latencies(), scaleModeThreshold, ctx.RNG), nil, nil
	}},
	{"power-of-choice", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		factor, err := ResolveCandidateFactor(ctx.CandidateFactor)
		if err != nil {
			return nil, nil, err
		}
		return NewPowerOfChoice(ctx.NumParties, factor, ctx.RNG), nil, nil
	}},
	{"cluster-proportional", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		clusters, err := labelClusters("cluster-proportional", ctx)
		if err != nil {
			return nil, nil, err
		}
		sel, err := NewClusterProportional(clusters, ctx.RNG.Split(2))
		if err != nil {
			return nil, nil, err
		}
		return sel, clusters, nil
	}},
	scoredEntry(scoreGradNorm),
	scoredEntry(scoreLossProp),
	scoredEntry(scoreDivergence),
	scoredEntry(scoreSoftDeadline),
	scoredEntry(scoreHardDeadline),
	{"dpp", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		return newDPP(ctx.NumParties, ctx.ParamDim, scaleModeThreshold, ctx.RNG), nil, nil
	}},
}

// scoredEntry is the registry row of one Scored kind, named by the kind.
func scoredEntry(kind scoredKind) entry {
	return entry{kind.String(), func(ctx BuildContext) (fl.Selector, [][]int, error) {
		return newScored(kind, ctx.NumParties, ctx.Deadline, scaleModeThreshold, ctx.RNG), nil, nil
	}}
}

// Names lists the registered selector names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// lookup returns a name's builder, or an error listing what would have
// worked — so a typo at any edge (CLI flag, job submission, config file)
// reports the registered names.
func lookup(name string) (Builder, error) {
	for _, e := range registry {
		if e.name == name {
			return e.build, nil
		}
	}
	return nil, fmt.Errorf("selection: unknown selector %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// Check reports whether a name is registered, without building anything.
func Check(name string) error {
	_, err := lookup(name)
	return err
}

// Build resolves a name and runs its builder.
func Build(name string, ctx BuildContext) (fl.Selector, [][]int, error) {
	b, err := lookup(name)
	if err != nil {
		return nil, nil, err
	}
	if ctx.NumParties < 1 {
		return nil, nil, fmt.Errorf("selection: selector %q needs at least one party", name)
	}
	if ctx.RNG == nil {
		return nil, nil, fmt.Errorf("selection: selector %q needs a random source", name)
	}
	return b(ctx)
}

// Fleet-scale bounds for the label-distribution clustering builders: the
// Davies-Bouldin sweep runs repeats K-Means fits per candidate k, so the
// historical maxK = N/4 is intractable above the scale threshold (a
// 10k-party build would fit thousands of K-Means). Capping the sweep is the
// cluster strategies' fleet-scale path; below scaleModeThreshold the sweep
// is byte-identical to the historical builder.
const (
	fleetMaxClusters    = 12
	fleetClusterRepeats = 2
)

// labelClusters runs the FLIPS label-distribution clustering for a build
// context, using ctx.RNG.Split(1) exactly as the historical builder did.
func labelClusters(name string, ctx BuildContext) ([][]int, error) {
	if ctx.LabelDists == nil {
		return nil, fmt.Errorf("selection: selector %q needs label distributions", name)
	}
	lds := ctx.LabelDists()
	n := ctx.NumParties
	if n == 1 {
		// A singleton population cannot be swept over k >= 2 clusters.
		return [][]int{{0}}, nil
	}
	maxK, repeats := core.DefaultMaxK(n), 5
	if n > scaleModeThreshold {
		if maxK > fleetMaxClusters {
			maxK = fleetMaxClusters
		}
		repeats = fleetClusterRepeats
	}
	stop := ctx.Context
	if stop == nil {
		stop = context.Background()
	}
	return core.ClusterLabelDistributionsContext(stop, lds, maxK, repeats, ctx.RNG.Split(1))
}
