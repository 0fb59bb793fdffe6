package core

// pickHeap is a min-heap of ids by fewest picks, ties to the lower id
// (Algorithm 1's H and Hc). FLIPS's fairness guarantee — every party within
// a cluster gets an equal opportunity — is enforced by always extracting the
// least-picked id. The keys live in picks, a table indexed by id that the
// selector shares with every heap over the same ids. The order is strict, so
// a heap pops the same id whatever its layout.
type pickHeap struct {
	ids   []int
	picks []int
}

func (h *pickHeap) less(i, j int) bool {
	a, b := h.ids[i], h.ids[j]
	return h.picks[a] < h.picks[b] || h.picks[a] == h.picks[b] && a < b
}

func (h *pickHeap) push(id int) {
	h.ids = append(h.ids, id)
	h.up(len(h.ids) - 1)
}

func (h *pickHeap) pop() int {
	id, last := h.ids[0], len(h.ids)-1
	h.ids[0] = h.ids[last]
	h.ids = h.ids[:last]
	h.down(0)
	return id
}

func (h *pickHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.ids[i], h.ids[parent] = h.ids[parent], h.ids[i]
		i = parent
	}
}

func (h *pickHeap) down(i int) {
	for {
		child := 2*i + 1
		if child >= len(h.ids) {
			return
		}
		if r := child + 1; r < len(h.ids) && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			return
		}
		h.ids[i], h.ids[child] = h.ids[child], h.ids[i]
		i = child
	}
}
