package selection

import (
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

// Builder constructs a selector from a build context. The second return
// value carries the party clusters for cluster-based strategies (nil for
// everything else) — the FLIPS pipeline reports cluster counts and the
// ablation benches reuse them.
type Builder func(ctx BuildContext) (fl.Selector, [][]int, error)

// Registry is a name-indexed selector registry with deterministic iteration
// order: Names returns registrants in registration order, which is the order
// every consumer (strategy lists, tournament arms, property suites) sees.
type Registry struct {
	names    []string
	builders map[string]Builder
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{builders: map[string]Builder{}}
}

// Register adds a named builder. Empty names, nil builders and duplicate
// registrations are programming errors and panic.
func (reg *Registry) Register(name string, b Builder) {
	if name == "" {
		panic("selection: Register with empty name")
	}
	if b == nil {
		panic(fmt.Sprintf("selection: Register(%q) with nil builder", name))
	}
	if _, dup := reg.builders[name]; dup {
		panic(fmt.Sprintf("selection: selector %q registered twice", name))
	}
	reg.builders[name] = b
	reg.names = append(reg.names, name)
}

// Names lists the registered selector names in registration order.
func (reg *Registry) Names() []string {
	return append([]string(nil), reg.names...)
}

// Check reports whether a name is registered, without building anything.
func (reg *Registry) Check(name string) error {
	if _, ok := reg.builders[name]; !ok {
		return fmt.Errorf("selection: unknown selector %q (registered: %s)",
			name, strings.Join(reg.names, ", "))
	}
	return nil
}

// Build resolves a name and runs its builder. Unknown names are rejected
// with the full registered list, so a typo at any edge (CLI flag, job
// submission, config file) reports what would have worked.
func (reg *Registry) Build(name string, ctx BuildContext) (fl.Selector, [][]int, error) {
	if err := reg.Check(name); err != nil {
		return nil, nil, err
	}
	b := reg.builders[name]
	if ctx.NumParties < 1 {
		return nil, nil, fmt.Errorf("selection: selector %q needs at least one party", name)
	}
	if ctx.RNG == nil {
		return nil, nil, fmt.Errorf("selection: selector %q needs a random source", name)
	}
	return b(ctx)
}

// defaultRegistry holds the built-in strategies. Registration order is the
// canonical strategy order: the paper's five comparisons first (matching
// experiment.AllStrategies), then the extension baselines, then the scored,
// deadline-aware and diversity families this registry introduced.
var defaultRegistry = newBuiltinRegistry()

// Register adds a builder to the default registry (see Registry.Register).
func Register(name string, b Builder) { defaultRegistry.Register(name, b) }

// Names lists the default registry's selector names in registration order.
func Names() []string { return defaultRegistry.Names() }

// Check reports whether the default registry has a name.
func Check(name string) error { return defaultRegistry.Check(name) }

// Build resolves a name against the default registry.
func Build(name string, ctx BuildContext) (fl.Selector, [][]int, error) {
	return defaultRegistry.Build(name, ctx)
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
	maxK := n / 4
	if maxK < 3 {
		maxK = minInt(3, n)
	}
	repeats := 5
	if n > scaleModeThreshold {
		if maxK > fleetMaxClusters {
			maxK = fleetMaxClusters
		}
		repeats = fleetClusterRepeats
	}
	return core.ClusterLabelDistributions(lds, maxK, repeats, ctx.RNG.Split(1))
}

func newBuiltinRegistry() *Registry {
	reg := NewRegistry()
	reg.Register("random", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		return NewRandom(ctx.NumParties, ctx.RNG), nil, nil
	})
	reg.Register("flips", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		clusters, err := labelClusters("flips", ctx)
		if err != nil {
			return nil, nil, err
		}
		sel, err := core.NewSelector(clusters)
		if err != nil {
			return nil, nil, err
		}
		return sel, clusters, nil
	})
	reg.Register("oort", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		var sizes []int
		if ctx.DataSizes != nil {
			sizes = ctx.DataSizes()
		}
		return NewOort(ctx.NumParties, sizes, OortConfig{}, ctx.RNG), nil, nil
	})
	reg.Register("gradclus", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		return NewGradClus(ctx.NumParties, ctx.ParamDim, ctx.RNG), nil, nil
	})
	reg.Register("tifl", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		if ctx.Latencies == nil {
			return nil, nil, fmt.Errorf("selection: selector %q needs per-party latencies", "tifl")
		}
		return NewTiFL(ctx.Latencies(), TiFLConfig{}, ctx.RNG), nil, nil
	})
	reg.Register("power-of-choice", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		factor := ctx.CandidateFactor
		if factor < 0 || (factor > 0 && factor < 1) {
			return nil, nil, fmt.Errorf("selection: power-of-choice candidate factor %v must be 0 (default 2) or >= 1", factor)
		}
		if factor == 0 {
			factor = 2
		}
		return NewPowerOfChoice(ctx.NumParties, factor, ctx.RNG), nil, nil
	})
	reg.Register("cluster-proportional", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		clusters, err := labelClusters("cluster-proportional", ctx)
		if err != nil {
			return nil, nil, err
		}
		sel, err := NewClusterProportional(clusters, ctx.RNG.Split(2))
		if err != nil {
			return nil, nil, err
		}
		return sel, clusters, nil
	})
	reg.Register("grad-norm", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		return NewGradNorm(ctx.NumParties, ScoredConfig{}, ctx.RNG), nil, nil
	})
	reg.Register("loss-prop", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		return NewLossProportional(ctx.NumParties, ScoredConfig{}, ctx.RNG), nil, nil
	})
	reg.Register("divergence", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		return NewUpdateDivergence(ctx.NumParties, ScoredConfig{}, ctx.RNG), nil, nil
	})
	reg.Register("soft-deadline", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		return NewSoftDeadline(ctx.NumParties, ScoredConfig{Deadline: ctx.Deadline}, ctx.RNG), nil, nil
	})
	reg.Register("hard-deadline", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		return NewHardDeadline(ctx.NumParties, ScoredConfig{Deadline: ctx.Deadline}, ctx.RNG), nil, nil
	})
	reg.Register("dpp", func(ctx BuildContext) (fl.Selector, [][]int, error) {
		return NewDPP(ctx.NumParties, ctx.ParamDim, DPPConfig{}, ctx.RNG), nil, nil
	})
	return reg
}
