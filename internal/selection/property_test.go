package selection

import (
	"fmt"
	"math"
	"testing"

	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// Property-based selector invariant suite (ISSUE 5, registry-driven since
// ISSUE 10). Every selection strategy — in both its exact small-fleet mode
// and its bounded fleet-scale mode — must uphold, across randomized
// scenarios with a live feedback loop:
//
//  1. no duplicate IDs in a selection;
//  2. selection ⊆ available (every ID in [0, n));
//  3. selection size inside the strategy's owed bounds (exact-k for most;
//     Oort and FLIPS over-provision by design once stragglers appear);
//  4. determinism: two identically seeded instances fed identical feedback
//     produce identical trajectories; and for the order-insensitive modes,
//     the trajectory is additionally invariant when each round's feedback is
//     re-indexed — slices permuted and maps rebuilt in permuted insertion
//     order — which pins that no selector decision leans on Go map iteration
//     order or on the engine's fold order.
//
// The registry half of the suite enumerates selection.Names() and fails if a
// registered selector has no registryCaseProps entry: a selector cannot be
// added to the registry without declaring its invariants here and passing
// them. Fleet-scale twins are exercised at small n by passing the unexported
// constructors a scale threshold of 1 — plus one pre-warmed 640-party scenario
// whose tried set outgrows candidatePool and gradPoolCap, so the band and
// pool bounds actually engage; the pool-based ones (Oort's untried pool, GradClus/DPP's recency
// list, TiFL's streaming tiers) are order-sensitive by construction, so they
// assert determinism but not permutation invariance — the Scored family's
// scale mode shares all state with its exact mode and stays fully invariant.

type selectorCase struct {
	name string
	// build constructs a fresh selector over n parties from a seed.
	build func(n int, seed uint64) fl.Selector
	// wantLen returns the [lo, hi] selection-size bounds the strategy owes.
	wantLen func(n, target int, sawStrag bool) (int, int)
	// orderInvariant asserts the re-indexed-feedback invariance too.
	orderInvariant bool
	// fleetTwin marks a forced fleet-scale twin, which also runs the
	// pre-warmed large scenario.
	fleetTwin bool
}

// selectorProps declares a registered selector's invariants for the suite.
type selectorProps struct {
	wantLen        func(n, target int, sawStrag bool) (int, int)
	orderInvariant bool
}

func exactLen(n, target int, _ bool) (int, int) {
	k := minInt(target, n)
	return k, k
}

func oortLen(n, target int, sawStrag bool) (int, int) {
	target = minInt(target, n)
	if !sawStrag {
		return target, target
	}
	k := minInt(int(math.Ceil(1.3*float64(target))), n)
	return k, k
}

// flipsLen: pickEquitable always fills min(target, n); outstanding
// stragglers add up to int(stragRate·target) over-provisioned parties.
func flipsLen(n, target int, _ bool) (int, int) {
	return minInt(target, n), n
}

// registryCaseProps declares the invariants for every registered selector.
// TestPropertySuiteCoversRegistry fails if a registrant is missing here.
var registryCaseProps = map[string]selectorProps{
	"random":               {wantLen: exactLen, orderInvariant: true},
	"flips":                {wantLen: flipsLen, orderInvariant: true},
	"oort":                 {wantLen: oortLen, orderInvariant: true},
	"gradclus":             {wantLen: exactLen, orderInvariant: true},
	"tifl":                 {wantLen: exactLen, orderInvariant: true},
	"power-of-choice":      {wantLen: exactLen, orderInvariant: true},
	"cluster-proportional": {wantLen: exactLen, orderInvariant: true},
	"grad-norm":            {wantLen: exactLen, orderInvariant: true},
	"loss-prop":            {wantLen: exactLen, orderInvariant: true},
	"divergence":           {wantLen: exactLen, orderInvariant: true},
	"soft-deadline":        {wantLen: exactLen, orderInvariant: true},
	"hard-deadline":        {wantLen: exactLen, orderInvariant: true},
	"dpp":                  {wantLen: exactLen, orderInvariant: true},
}

// testBuildContext synthesizes the registry build signals for n parties:
// deterministic non-uniform data sizes, latencies, and 5-class label
// distributions with a dominant class cycling by party id.
func testBuildContext(n int, seed uint64) BuildContext {
	return BuildContext{
		NumParties: n,
		ParamDim:   6,
		RNG:        rng.New(seed),
		DataSizes: func() []int {
			sizes := make([]int, n)
			for i := range sizes {
				sizes[i] = 1 + i%50
			}
			return sizes
		},
		Latencies: func() []float64 {
			ls := make([]float64, n)
			for i := range ls {
				ls[i] = 0.1 + float64(i%13)/8
			}
			return ls
		},
		LabelDists: func() []tensor.Vec {
			lds := make([]tensor.Vec, n)
			for i := range lds {
				v := tensor.NewVec(5)
				for j := range v {
					v[j] = 0.06
				}
				v[i%5] += 0.7
				lds[i] = v.Normalize()
			}
			return lds
		},
	}
}

func selectorCases(t *testing.T) []selectorCase {
	var cases []selectorCase
	for _, name := range Names() {
		props, ok := registryCaseProps[name]
		if !ok {
			t.Fatalf("selector %q is registered but has no property-suite entry — add it to registryCaseProps", name)
		}
		name := name
		cases = append(cases, selectorCase{
			name: name,
			build: func(n int, seed uint64) fl.Selector {
				sel, _, err := Build(name, testBuildContext(n, seed))
				if err != nil {
					t.Fatalf("Build(%q, n=%d): %v", name, n, err)
				}
				return sel
			},
			wantLen:        props.wantLen,
			orderInvariant: props.orderInvariant,
		})
	}
	// Fleet-scale twins, forced with a scale threshold of 1.
	cases = append(cases,
		selectorCase{
			name: "oort-scale",
			build: func(n int, seed uint64) fl.Selector {
				return newOort(n, nil, 1, rng.New(seed))
			},
			wantLen: oortLen,
		},
		selectorCase{
			name: "tifl-scale",
			build: func(n int, seed uint64) fl.Selector {
				r := rng.New(seed)
				lr := r.Split(1)
				ls := make([]float64, n)
				for i := range ls {
					ls[i] = 0.1 + lr.Float64()
				}
				return newTiFL(ls, 1, r.Split(2))
			},
			wantLen: exactLen,
		},
		selectorCase{
			name: "gradclus-scale",
			build: func(n int, seed uint64) fl.Selector {
				return newGradClus(n, 6, 1, rng.New(seed))
			},
			wantLen: exactLen,
		},
		selectorCase{
			name: "dpp-scale",
			build: func(n int, seed uint64) fl.Selector {
				return newDPP(n, 6, 1, rng.New(seed))
			},
			wantLen: exactLen,
		},
	)
	for _, kind := range scoredKinds {
		kind := kind
		cases = append(cases, selectorCase{
			name: kind.String() + "-scale",
			build: func(n int, seed uint64) fl.Selector {
				return newScored(kind, n, 0, 1, rng.New(seed))
			},
			wantLen:        exactLen,
			orderInvariant: true,
		})
	}
	for i := len(Names()); i < len(cases); i++ {
		cases[i].fleetTwin = true
	}
	return cases
}

// TestPropertySuiteCoversRegistry enforces the registry-admission rule: every
// registered selector must declare its invariants in registryCaseProps (and
// therefore run through TestSelectorInvariantSuite).
func TestPropertySuiteCoversRegistry(t *testing.T) {
	t.Parallel()
	for _, name := range Names() {
		if _, ok := registryCaseProps[name]; !ok {
			t.Errorf("selector %q is registered but not covered by the property suite", name)
		}
	}
	for name := range registryCaseProps {
		if _, _, err := Build(name, testBuildContext(8, 1)); err != nil {
			t.Errorf("property-suite entry %q does not build from the registry: %v", name, err)
		}
	}
}

// scenarioFeedback builds one round of feedback for the selected cohort:
// every third round the tail party straggles, losses and durations are a
// deterministic function of the party ID, and updates are materialized for
// UpdateConsumer selectors.
func scenarioFeedback(round int, sel []int, gradDim int, needUpdates bool) (fl.RoundFeedback, bool) {
	fb := fl.RoundFeedback{
		Round:    round,
		Selected: append([]int(nil), sel...),
		MeanLoss: map[int]float64{},
		SqLoss:   map[int]float64{},
		Duration: map[int]float64{},
	}
	if needUpdates {
		fb.Update = map[int]tensor.Vec{}
	}
	straggle := round%3 == 2 && len(sel) > 1
	n := len(sel)
	if straggle {
		fb.Stragglers = []int{sel[n-1]}
		n--
	}
	for _, id := range sel[:n] {
		fb.Completed = append(fb.Completed, id)
		loss := 0.2 + float64(id%11)/10
		fb.MeanLoss[id] = loss
		fb.SqLoss[id] = loss * loss
		fb.Duration[id] = 0.5 + float64(id%5)/4
		if needUpdates {
			u := tensor.NewVec(gradDim)
			for j := range u {
				u[j] = math.Sin(float64(id*gradDim + j))
			}
			fb.Update[id] = u
		}
	}
	return fb, straggle
}

// permuteFeedback re-indexes a feedback record: slices reversed and maps
// rebuilt in reversed insertion order. Semantically identical content,
// maximally different presentation.
func permuteFeedback(fb fl.RoundFeedback) fl.RoundFeedback {
	rev := func(xs []int) []int {
		out := make([]int, len(xs))
		for i, v := range xs {
			out[len(xs)-1-i] = v
		}
		return out
	}
	out := fl.RoundFeedback{
		Round:      fb.Round,
		Selected:   rev(fb.Selected),
		Completed:  rev(fb.Completed),
		Stragglers: rev(fb.Stragglers),
		MeanLoss:   map[int]float64{},
		SqLoss:     map[int]float64{},
		Duration:   map[int]float64{},
	}
	if fb.Update != nil {
		out.Update = map[int]tensor.Vec{}
	}
	for _, id := range out.Completed {
		out.MeanLoss[id] = fb.MeanLoss[id]
		out.SqLoss[id] = fb.SqLoss[id]
		out.Duration[id] = fb.Duration[id]
		if fb.Update != nil {
			out.Update[id] = fb.Update[id].Clone()
		}
	}
	return out
}

func TestSelectorInvariantSuite(t *testing.T) {
	t.Parallel()
	const gradDim = 6
	for _, tc := range selectorCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			type scenario struct {
				seed            uint64
				n, target, warm int
			}
			var scenarios []scenario
			for seed := uint64(1); seed <= 6; seed++ {
				scen := rng.New(seed * 0x51)
				n := 8 + scen.Intn(40)
				scenarios = append(scenarios, scenario{seed: seed, n: n, target: 1 + scen.Intn(n)})
			}
			if tc.fleetTwin {
				// 400 tried parties against a 40-party request: the candidate
				// band (256) and the gradient pool (192) are both bounded.
				scenarios = append(scenarios, scenario{seed: 7, n: 640, target: 40, warm: 400})
			}
			for _, sc := range scenarios {
				seed, n, target := sc.seed, sc.n, sc.target
				a := tc.build(n, seed)
				b := tc.build(n, seed) // identical twin, re-indexed feedback
				needUpdates := false
				if uc, ok := a.(fl.UpdateConsumer); ok {
					needUpdates = uc.NeedsUpdates()
				}
				if sc.warm > 0 {
					ids := make([]int, sc.warm)
					for i := range ids {
						ids[i] = i
					}
					fb, _ := scenarioFeedback(0, ids, gradDim, needUpdates)
					a.Observe(fb)
					if tc.orderInvariant {
						fb = permuteFeedback(fb)
					}
					b.Observe(fb)
				}
				sawStrag := false
				for round := 0; round < 6; round++ {
					sel := a.Select(round, target)
					selB := b.Select(round, target)

					// Invariants 1-3 on the primary instance.
					lo, hi := tc.wantLen(n, target, sawStrag)
					if len(sel) < lo || len(sel) > hi {
						t.Fatalf("seed %d round %d: selected %d parties, want [%d,%d] (n=%d target=%d strag=%v)",
							seed, round, len(sel), lo, hi, n, target, sawStrag)
					}
					seen := make(map[int]bool, len(sel))
					for _, id := range sel {
						if id < 0 || id >= n {
							t.Fatalf("seed %d round %d: party %d outside [0,%d)", seed, round, id, n)
						}
						if seen[id] {
							t.Fatalf("seed %d round %d: duplicate party %d", seed, round, id)
						}
						seen[id] = true
					}

					// Invariant 4: identical trajectory on the twin.
					if fmt.Sprint(sel) != fmt.Sprint(selB) {
						if tc.orderInvariant {
							t.Fatalf("seed %d round %d: re-indexed feedback moved the selection:\n%v\n%v",
								seed, round, sel, selB)
						}
						t.Fatalf("seed %d round %d: identically seeded twin diverged before feedback differences could matter:\n%v\n%v",
							seed, round, sel, selB)
					}

					fb, straggled := scenarioFeedback(round, sel, gradDim, needUpdates)
					sawStrag = sawStrag || straggled
					a.Observe(fb)
					if tc.orderInvariant {
						b.Observe(permuteFeedback(fb))
					} else {
						b.Observe(fb)
					}
				}
			}
		})
	}
}
