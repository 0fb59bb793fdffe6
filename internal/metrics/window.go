package metrics

import (
	"math"
	"sort"
)

// Window is a fixed-capacity ring of the most recent observations with
// order-statistic queries, for service metrics (p50/p99 job latency) where
// the tail matters and a bounded memory footprint is required. Pushing is O(1); Quantile sorts a scratch copy on
// demand, so it costs O(n log n) per scrape, which is the right trade for a
// metrics endpoint polled a few times a second at most.
//
// A Window is not goroutine-safe; guard it with the owner's mutex.
type Window struct {
	buf   []float64
	next  int
	full  bool
	count int // total observations ever pushed
}

// NewWindow returns a window retaining the last capacity observations
// (minimum 1).
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{buf: make([]float64, 0, capacity)}
}

// Push folds one observation in, evicting the oldest once full.
func (w *Window) Push(x float64) {
	w.count++
	if !w.full {
		w.buf = append(w.buf, x)
		if len(w.buf) == cap(w.buf) {
			w.full = true
		}
		return
	}
	w.buf[w.next] = x
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
	}
}

// Len reports how many observations the window currently retains.
func (w *Window) Len() int { return len(w.buf) }

// Count reports the total observations ever pushed, including evicted ones.
func (w *Window) Count() int { return w.count }

// Quantile returns the q-quantile (q in [0,1]) of the retained observations
// by the nearest-rank method, or NaN for an empty window. Quantile(0) is the
// minimum, Quantile(1) the maximum.
func (w *Window) Quantile(q float64) float64 {
	if len(w.buf) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	scratch := append(make([]float64, 0, len(w.buf)), w.buf...)
	sort.Float64s(scratch)
	if q <= 0 {
		return scratch[0]
	}
	if q >= 1 {
		return scratch[len(scratch)-1]
	}
	rank := int(math.Ceil(q*float64(len(scratch)))) - 1
	if rank < 0 {
		rank = 0
	}
	return scratch[rank]
}
