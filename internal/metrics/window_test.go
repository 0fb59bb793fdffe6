package metrics

import (
	"math"
	"testing"
)

func TestWindowQuantileNearestRank(t *testing.T) {
	t.Parallel()
	w := NewWindow(100)
	for i := 1; i <= 100; i++ {
		w.Push(float64(i))
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	} {
		if got := w.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestWindowEvictsOldest(t *testing.T) {
	t.Parallel()
	w := NewWindow(4)
	for i := 1; i <= 10; i++ {
		w.Push(float64(i))
	}
	// Retains 7..10 only.
	if got := w.Quantile(0); got != 7 {
		t.Fatalf("min after eviction = %v, want 7", got)
	}
	if got := w.Quantile(1); got != 10 {
		t.Fatalf("max after eviction = %v, want 10", got)
	}
	if len(w.buf) != 4 {
		t.Fatalf("retains %d observations, want 4", len(w.buf))
	}
}

func TestWindowEmptyAndEdge(t *testing.T) {
	t.Parallel()
	w := NewWindow(0) // clamps to 1
	if !math.IsNaN(w.Quantile(0.5)) {
		t.Fatal("empty window quantile not NaN")
	}
	w.Push(3)
	w.Push(5) // evicts 3
	if got := w.Quantile(0.5); got != 5 {
		t.Fatalf("single-slot window = %v, want 5", got)
	}
	if !math.IsNaN(w.Quantile(math.NaN())) {
		t.Fatal("NaN q must yield NaN")
	}
}

// TestWindowQuantileDoesNotReorder pins that scrapes do not disturb ring
// order: interleaved Push/Quantile must keep eviction FIFO.
func TestWindowQuantileDoesNotReorder(t *testing.T) {
	t.Parallel()
	w := NewWindow(3)
	w.Push(30)
	w.Push(10)
	_ = w.Quantile(0.5)
	w.Push(20)
	_ = w.Quantile(0.99)
	w.Push(40) // evicts 30
	if got := w.Quantile(1); got != 40 {
		t.Fatalf("max = %v, want 40", got)
	}
	if got := w.Quantile(0); got != 10 {
		t.Fatalf("min = %v, want 10 (30 must be evicted first)", got)
	}
}
