package partition

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"flips/internal/rng"
)

// sortApportion is largestRemainderApportion as it was before the leftover
// parties were selected instead of sorted: every party sorted by remainder,
// descending under cmp.Compare, ties to the lower index, and the first
// `left` of them take one item each. It is the reference for selectFirst.
func sortApportion(props []float64, n int) []int {
	counts := make([]int, len(props))
	fracs := make([]float64, len(props))
	assigned := 0
	for i, p := range props {
		exact := float64(p * float64(n))
		counts[i] = int(exact)
		fracs[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	left := n - assigned
	if left <= 0 || len(props) == 0 {
		return counts
	}
	for _, i := range sortedByRemainder(fracs)[:min(left, len(props))] {
		counts[i]++
	}
	if left > len(props) {
		counts[0] += left - len(props)
	}
	return counts
}

// sortedByRemainder returns the party indices sorted as the old apportion
// sorted them.
func sortedByRemainder(fracs []float64) []int {
	order := make([]int, len(fracs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(fracs[b], fracs[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// TestApportionMatchesSort holds the selected apportion to the sorted one on
// Dirichlet draws of every sparsity and size (past the point where selectFirst
// partitions instead of sorting its window), on coarse grids whose remainders
// tie exactly, and on zero-mass vectors, where every remainder is zero.
func TestApportionMatchesSort(t *testing.T) {
	t.Parallel()
	r := rng.New(101)
	for i := 0; i < 300; i++ {
		dim := 1 + r.Intn([]int{20, 300, 5000}[i%3])
		n := r.Intn(3 * dim)
		props := r.Dirichlet([]float64{0.05, 0.3, 1, 10}[i%4], dim)
		switch i % 5 {
		case 0: // a grid: many remainders equal
			grid := float64(1 + r.Intn(8))
			var sum float64
			for j := range props {
				props[j] = float64(r.Intn(4)) / grid
				sum += props[j]
			}
			for j := range props {
				if sum > 0 {
					props[j] /= sum
				}
			}
		case 1: // zero mass: every remainder ties at zero, items spill onto party 0
			clear(props)
		}
		if want, got := sortApportion(props, n), largestRemainderApportion(props, n); !slices.Equal(want, got) {
			t.Fatalf("draw %d (dim %d, n %d): counts %v, sorted reference %v", i, dim, n, got, want)
		}
	}
}

// TestSelectFirstMatchesSort holds selectFirst to the sort it replaced, at
// every k, on remainders no apportion produces as well as ones it does: runs
// of exact ties, signed zeros, infinities and NaN, which cmp.Compare places
// below every number. The chosen set must be the sort's prefix.
func TestSelectFirstMatchesSort(t *testing.T) {
	t.Parallel()
	special := []float64{0, math.Copysign(0, -1), 0.5, 0.5, math.Inf(1), math.Inf(-1), math.NaN()}
	r := rng.New(103)
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn([]int{10, 40, 2000}[i%3])
		fracs := make([]float64, n)
		for j := range fracs {
			fracs[j] = r.Float64()
			switch i % 4 {
			case 1:
				fracs[j] = float64(r.Intn(3)) / 4
			case 2:
				if r.Intn(4) == 0 {
					fracs[j] = special[r.Intn(len(special))]
				}
			}
		}
		want := sortedByRemainder(fracs)
		for _, k := range []int{0, 1, n / 3, n / 2, n - 1, n} {
			order := make([]int, n)
			for j := range order {
				order[j] = j
			}
			selectFirst(order, k, fracs)
			got := slices.Clone(order[:k])
			slices.Sort(got)
			prefix := slices.Clone(want[:k])
			slices.Sort(prefix)
			if !slices.Equal(got, prefix) {
				t.Fatalf("case %d, %d parties, k %d: selected %v, sort's prefix %v", i, n, k, got, prefix)
			}
			slices.Sort(order)
			for j, party := range order {
				if party != j {
					t.Fatalf("case %d, k %d: selectFirst lost or duplicated a party", i, k)
				}
			}
		}
	}
}

// apportionInputs is one Dirichlet label split per fleet size: a label's
// share of a fleet with two samples per party, over every party.
func apportionInputs() map[string][]float64 {
	r := rng.New(107)
	return map[string][]float64{"20k": r.Dirichlet(0.5, 20_000), "1M": r.Dirichlet(0.5, 1_000_000)}
}

// BenchmarkApportion times one label's apportionment at fleet scale, where
// most parties' exact share is below one item, so a large share of them take
// a leftover one: selecting them is linear, sorting every party
// (BenchmarkApportionSort) is not.
func BenchmarkApportion(b *testing.B) {
	for name, props := range apportionInputs() {
		n := 2 * len(props) / 5
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				largestRemainderApportion(props, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(props)), "ns/party")
		})
	}
}

// BenchmarkApportionSort times the sort-based reference on the same inputs.
func BenchmarkApportionSort(b *testing.B) {
	for name, props := range apportionInputs() {
		n := 2 * len(props) / 5
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sortApportion(props, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(props)), "ns/party")
		})
	}
}
