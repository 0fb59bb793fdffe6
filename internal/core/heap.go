package core

import "container/heap"

// pickItem tracks how often an entity (party or cluster) has been picked.
// FLIPS's fairness guarantee — every party within a cluster gets an equal
// opportunity — is enforced by always extracting the least-picked item.
type pickItem struct {
	id    int
	picks int
	index int // heap index, maintained by the heap interface
}

// pickHeap is a min-heap of pickItems by fewest picks (Algorithm 1's H and
// Hc). Ties break on lowest id for determinism.
type pickHeap struct {
	items []*pickItem
}

var _ heap.Interface = (*pickHeap)(nil)

func (h *pickHeap) Len() int { return len(h.items) }

func (h *pickHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.picks != b.picks {
		return a.picks < b.picks
	}
	return a.id < b.id
}

func (h *pickHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}

// Push implements heap.Interface; use push() instead.
func (h *pickHeap) Push(x any) {
	item, ok := x.(*pickItem)
	if !ok {
		panic("core: pickHeap.Push called with non-pickItem")
	}
	item.index = len(h.items)
	h.items = append(h.items, item)
}

// Pop implements heap.Interface; use pop() instead.
func (h *pickHeap) Pop() any {
	old := h.items
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return item
}

func (h *pickHeap) push(item *pickItem) { heap.Push(h, item) }

func (h *pickHeap) pop() *pickItem {
	item, ok := heap.Pop(h).(*pickItem)
	if !ok {
		panic("core: pickHeap.pop type corruption")
	}
	return item
}

func (h *pickHeap) fix(item *pickItem) { heap.Fix(h, item.index) }
