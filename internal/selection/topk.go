package selection

import (
	"math"
	"sort"
)

// utilEntry is one tried party in the fleet-scale utility heap: the party's
// id and its current utility, stored by value.
type utilEntry struct {
	util float64
	id   int
}

// before is the heap's order: utility descending, NaN after every number,
// ties on lowest id for determinism. It is a strict total order over entries
// (ids are unique), so the sequence of the k best entries is a property of
// the heap's contents alone, never of its internal layout.
func (a utilEntry) before(b utilEntry) bool {
	if a.util > b.util || a.util < b.util {
		return a.util > b.util
	}
	// Equal utilities, or a NaN among them.
	if aNaN, bNaN := math.IsNaN(a.util), math.IsNaN(b.util); aNaN != bNaN {
		return bNaN
	}
	return a.id < b.id
}

// inBand is pos's mark for a party held in the band rather than the heap.
const inBand = -2

// utilityHeap holds the tried parties ordered by utilEntry.before — the
// bounded top-k structure the fleet-scale selectors read their candidate
// band from instead of scoring every tried party per round. It has two
// parts, and every band entry orders before every heap entry:
//   - band: the best entries, sorted, persisting between reads;
//   - items: the rest, in a max-heap.
//
// pos maps a party id to its heap slot, inBand, or -1 while absent. top
// grows the band to the size asked for and copies it out in O(k); a re-key
// costs O(log tried) in the heap plus at most one O(band) shift of the band.
type utilityHeap struct {
	band  []utilEntry
	items []utilEntry
	pos   []int
}

// newUtilityHeap returns an empty heap for party ids in [0, numParties).
func newUtilityHeap(numParties int) utilityHeap {
	pos := make([]int, numParties)
	for i := range pos {
		pos[i] = -1
	}
	return utilityHeap{pos: pos}
}

// push enters a party that is not in the heap yet.
func (h *utilityHeap) push(id int, u float64) {
	h.items = append(h.items, utilEntry{util: u, id: id})
	h.up(len(h.items) - 1)
	h.settle()
}

// set re-keys a party's entry from old, its current utility, to u; a no-op
// when the party is absent or its utility unchanged. A heap entry sifts; a
// band entry, found by its old key, slides to its new slot. Either may then
// cross the boundary, which settle restores.
func (h *utilityHeap) set(id int, old, u float64) {
	i := h.pos[id]
	if i == -1 || old == u {
		return
	}
	e := utilEntry{util: u, id: id}
	if i >= 0 {
		h.items[i] = e
		if !h.down(i) {
			h.up(i)
		}
	} else if from, to := h.rank(utilEntry{util: old, id: id}), h.rank(e); to > from {
		copy(h.band[from:to-1], h.band[from+1:to])
		h.band[to-1] = e
	} else {
		copy(h.band[to+1:from+1], h.band[to:from])
		h.band[to] = e
	}
	h.settle()
}

// settle restores the boundary after one entry changed: when the heap root
// now orders before the band's tail, the two swap.
func (h *utilityHeap) settle() {
	n := len(h.band)
	if n == 0 || len(h.items) == 0 || !h.items[0].before(h.band[n-1]) {
		return
	}
	e := h.items[0]
	h.items[0] = h.band[n-1]
	h.down(0)
	i := h.rank(e)
	copy(h.band[i+1:], h.band[i:n-1])
	h.band[i] = e
	h.pos[e.id] = inBand
}

// rank returns the number of band entries that order before e: e's slot in
// the band when it is there, its insertion slot otherwise.
func (h *utilityHeap) rank(e utilEntry) int {
	return sort.Search(len(h.band), func(i int) bool { return !h.band[i].before(e) })
}

// up sifts the entry at slot i towards the root and records the slot of
// every entry it moves, the sifted one included.
func (h *utilityHeap) up(i int) {
	e := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		h.pos[h.items[i].id] = i
		i = parent
	}
	h.items[i] = e
	h.pos[e.id] = i
}

// down sifts the entry at slot i towards the leaves, records the slot of
// every entry it moves, and reports whether the sifted one moved.
func (h *utilityHeap) down(i int) bool {
	e, start, n := h.items[i], i, len(h.items)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.items[r].before(h.items[child]) {
			child = r
		}
		if !h.items[child].before(e) {
			break
		}
		h.items[i] = h.items[child]
		h.pos[h.items[i].id] = i
		i = child
	}
	h.items[i] = e
	h.pos[e.id] = i
	return i > start
}

// top appends the ids and utilities of the min(k, len) best entries to ids
// and utils in order (utility desc, id asc) — exactly the sequence k pops
// would produce. It first grows the band by popping heap roots until the
// band holds k entries; the band never shrinks, so a smaller k reads a
// prefix. Both slices are returned for reuse.
func (h *utilityHeap) top(k int, ids []int, utils []float64) ([]int, []float64) {
	for len(h.band) < k && len(h.items) > 0 {
		e := h.items[0]
		h.band = append(h.band, e)
		h.pos[e.id] = inBand
		last := len(h.items) - 1
		h.items[0] = h.items[last]
		h.items = h.items[:last]
		if last > 0 {
			h.down(0)
		}
	}
	for _, e := range h.band[:min(max(k, 0), len(h.band))] {
		ids = append(ids, e.id)
		utils = append(utils, e.util)
	}
	return ids, utils
}
