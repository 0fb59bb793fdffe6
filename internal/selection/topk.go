package selection

// utilEntry is one tried party in the fleet-scale utility heap: the party's
// id and its current utility, stored by value.
type utilEntry struct {
	util float64
	id   int
}

// before is the heap's order: utility descending, ties on lowest id for
// determinism. For non-NaN utilities it is a strict total order over entries
// (ids are unique), so the sequence of the k best entries is a property of
// the heap's contents alone, never of its internal layout.
func (a utilEntry) before(b utilEntry) bool {
	if a.util != b.util {
		return a.util > b.util
	}
	return a.id < b.id
}

// utilityHeap is a max-heap of tried parties ordered by utilEntry.before —
// the bounded top-k structure the fleet-scale selectors read their candidate
// band from instead of scoring every tried party per round. pos maps a party
// id to its slot in items (-1 while absent), so Observe re-keys a party in
// O(log n); top reads the band without moving anything.
type utilityHeap struct {
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

func (h *utilityHeap) len() int { return len(h.items) }

// push enters a party that is not in the heap yet.
func (h *utilityHeap) push(id int, u float64) {
	h.items = append(h.items, utilEntry{util: u, id: id})
	h.up(len(h.items) - 1)
}

// set re-keys a party's entry; a no-op when the party is absent or its
// utility unchanged.
func (h *utilityHeap) set(id int, u float64) {
	i := h.pos[id]
	if i < 0 || h.items[i].util == u {
		return
	}
	h.items[i].util = u
	if !h.down(i) {
		h.up(i)
	}
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

// down sifts the entry at slot i towards the leaves and reports whether it
// moved.
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
// and utils in heap order (utility desc, id asc) — exactly the sequence k
// pops would produce — without writing to the heap. It walks the tree from
// the root: an entry can only be the next best once its parent has been
// emitted, so a frontier of the emitted entries' children, itself a small
// heap of slots under the same order, always holds the next one. O(k log k)
// comparisons, none of them proportional to the heap. frontier is scratch;
// all three slices are returned for reuse.
func (h *utilityHeap) top(k int, ids []int, utils []float64, frontier []int) ([]int, []float64, []int) {
	n := len(h.items)
	if k > n {
		k = n
	}
	if k <= 0 {
		return ids, utils, frontier
	}
	items := h.items
	frontier = append(frontier[:0], 0)
	for {
		slot := frontier[0]
		ids = append(ids, items[slot].id)
		utils = append(utils, items[slot].util)
		if k--; k == 0 {
			return ids, utils, frontier
		}
		// Replace the emitted slot by its left child (or the frontier's last
		// slot when it is a leaf) and sift that down, then add the right child.
		left := 2*slot + 1
		if left < n {
			frontier[0] = left
		} else {
			last := len(frontier) - 1
			frontier[0] = frontier[last]
			frontier = frontier[:last]
		}
		if len(frontier) > 1 {
			s, i, m := frontier[0], 0, len(frontier)
			for {
				child := 2*i + 1
				if child >= m {
					break
				}
				if r := child + 1; r < m && items[frontier[r]].before(items[frontier[child]]) {
					child = r
				}
				if !items[frontier[child]].before(items[s]) {
					break
				}
				frontier[i] = frontier[child]
				i = child
			}
			frontier[i] = s
		}
		if right := left + 1; right < n {
			frontier = append(frontier, right)
			s, i := right, len(frontier)-1
			for i > 0 {
				parent := (i - 1) / 2
				if !items[s].before(items[frontier[parent]]) {
					break
				}
				frontier[i] = frontier[parent]
				i = parent
			}
			frontier[i] = s
		}
	}
}
