package selection

import (
	"strings"
	"testing"

	"flips/internal/fl"
	"flips/internal/rng"
)

// wantCanonicalOrder pins the registry's deterministic iteration order: the
// paper's five strategies first, then the extension baselines, then the
// families this registry introduced. Strategy lists, tournament arms and
// reports all render in this order.
var wantCanonicalOrder = []string{
	"random", "flips", "oort", "gradclus", "tifl",
	"power-of-choice", "cluster-proportional",
	"grad-norm", "loss-prop", "divergence",
	"soft-deadline", "hard-deadline", "dpp",
}

func TestRegistryNamesUniqueAndOrdered(t *testing.T) {
	t.Parallel()
	names := Names()
	if len(names) != len(wantCanonicalOrder) {
		t.Fatalf("registry has %d selectors, want %d: %v", len(names), len(wantCanonicalOrder), names)
	}
	seen := map[string]bool{}
	for i, name := range names {
		if seen[name] {
			t.Fatalf("duplicate registered name %q", name)
		}
		seen[name] = true
		if name != wantCanonicalOrder[i] {
			t.Fatalf("registration order[%d] = %q, want %q (full: %v)", i, name, wantCanonicalOrder[i], names)
		}
	}
	// Names must return a copy: mutating it cannot corrupt the registry.
	names[0] = "corrupted"
	if Names()[0] != "random" {
		t.Fatal("Names() exposes the registry's internal slice")
	}
}

func TestRegistryRejects(t *testing.T) {
	t.Parallel()
	_, _, err := Build("psychic", testBuildContext(8, 1))
	if err == nil {
		t.Fatal("unknown selector accepted")
	}
	// The edge error must list what would have worked.
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-selector error omits %q: %v", name, err)
		}
	}
	if _, _, err := Build("random", BuildContext{NumParties: 0, RNG: rng.New(1)}); err == nil {
		t.Fatal("zero-party build accepted")
	}
	if _, _, err := Build("random", BuildContext{NumParties: 8}); err == nil {
		t.Fatal("nil-RNG build accepted")
	}
	ctx := testBuildContext(2000, 1)
	ctx.CandidateFactor = 0.5
	if _, _, err := Build("power-of-choice", ctx); err == nil {
		t.Fatal("power-of-choice accepted candidate factor 0.5")
	}
}

// TestRegistryBuildsAtBothScales builds every registrant below and above the
// fleet-scale threshold and runs one Select/Observe/Select cycle: name
// agreement, in-range unique ids, non-empty cohort. The 10k build covers the
// fleet-scale constructor paths (bounded clustering sweeps, lazy gradient
// pools, heap-backed scorers).
func TestRegistryBuildsAtBothScales(t *testing.T) {
	t.Parallel()
	sizes := []int{10}
	if !testing.Short() {
		sizes = append(sizes, 10_000)
	}
	for _, n := range sizes {
		for _, name := range Names() {
			name, n := name, n
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				sel, clusters, err := Build(name, testBuildContext(n, 7))
				if err != nil {
					t.Fatalf("Build(%q, n=%d): %v", name, n, err)
				}
				if sel.Name() != name {
					t.Fatalf("Build(%q) returned selector named %q", name, sel.Name())
				}
				for _, cl := range clusters {
					if len(cl) == 0 {
						t.Fatalf("Build(%q) returned an empty cluster", name)
					}
				}
				needUpdates := false
				if uc, ok := sel.(fl.UpdateConsumer); ok {
					needUpdates = uc.NeedsUpdates()
				}
				target := minInt(8, n)
				for round := 0; round < 2; round++ {
					ids := sel.Select(round, target)
					if len(ids) == 0 {
						t.Fatalf("%s: empty selection (n=%d target=%d)", name, n, target)
					}
					seen := map[int]bool{}
					for _, id := range ids {
						if id < 0 || id >= n {
							t.Fatalf("%s: id %d outside [0,%d)", name, id, n)
						}
						if seen[id] {
							t.Fatalf("%s: duplicate id %d", name, id)
						}
						seen[id] = true
					}
					fb, _ := scenarioFeedback(round, ids, 6, needUpdates)
					sel.Observe(fb)
				}
			})
		}
	}
}
