package selection

import (
	"testing"

	"flips/internal/rng"
)

func TestClusterProportionalValidation(t *testing.T) {
	if _, err := NewClusterProportional(nil, rng.New(1)); err == nil {
		t.Fatal("expected error for no clusters")
	}
	if _, err := NewClusterProportional([][]int{{}}, rng.New(1)); err == nil {
		t.Fatal("expected error for empty clusters")
	}
}

func TestClusterProportionalSelectsUnique(t *testing.T) {
	s, err := NewClusterProportional([][]int{{0, 1, 2}, {3, 4}, {5}}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		sel := s.Select(round, 4)
		if len(sel) != 4 {
			t.Fatalf("selected %d", len(sel))
		}
		assertUniqueInRange(t, sel, 6)
	}
	if got := len(s.Select(0, 100)); got != 6 {
		t.Fatalf("oversized target selected %d", got)
	}
}

func TestClusterProportionalFavorsLargeClusters(t *testing.T) {
	// Cluster 0 has 18 parties, cluster 1 has 2: with one pick per round,
	// cluster 0 should receive ~90% of the picks — the imbalance FLIPS's
	// equitable round-robin removes.
	big := make([]int, 18)
	for i := range big {
		big[i] = i
	}
	s, err := NewClusterProportional([][]int{big, {18, 19}}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	bigPicks := 0
	const rounds = 2000
	for round := 0; round < rounds; round++ {
		if s.Select(round, 1)[0] < 18 {
			bigPicks++
		}
	}
	frac := float64(bigPicks) / rounds
	if frac < 0.8 || frac > 0.98 {
		t.Fatalf("large cluster picked %.2f of rounds, want ~0.9", frac)
	}
}

// BenchmarkClusterProportionalSelect draws a 200-party round from 10
// clusters of 2,000 parties each. A pick walks its cluster to the drawn free
// member, so the only allocation is the returned slice.
func BenchmarkClusterProportionalSelect(b *testing.B) {
	clusters := make([][]int, 10)
	for c := range clusters {
		for i := 0; i < 2000; i++ {
			clusters[c] = append(clusters[c], c*2000+i)
		}
	}
	s, err := NewClusterProportional(clusters, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drawSink = s.Select(i, 200)
	}
}
