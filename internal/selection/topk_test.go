package selection

import (
	"container/heap"
	"math"
	"slices"
	"testing"

	"flips/internal/fl"
	"flips/internal/rng"
)

// refItem and referenceHeap are the pointer heap utilityHeap replaced: one
// heap-allocated item per party behind container/heap, the candidate band
// dug out by popping and pushed back afterwards. They stay here as the
// reference top and selectScale are compared against.
type refItem struct {
	id    int
	util  float64
	index int
}

type referenceHeap struct {
	items []*refItem
}

func (h *referenceHeap) Len() int { return len(h.items) }

func (h *referenceHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.util != b.util {
		return a.util > b.util
	}
	return a.id < b.id
}

func (h *referenceHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}

func (h *referenceHeap) Push(x any) {
	item := x.(*refItem)
	item.index = len(h.items)
	h.items = append(h.items, item)
}

func (h *referenceHeap) Pop() any {
	old := h.items
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return item
}

// band pops the k best items and pushes them back, as the parent's Select
// loops did.
func (h *referenceHeap) band(k int) []*refItem {
	var out []*refItem
	for len(out) < k && h.Len() > 0 {
		out = append(out, heap.Pop(h).(*refItem))
	}
	for _, it := range out {
		heap.Push(h, it)
	}
	return out
}

// heapTwin drives a utilityHeap and a referenceHeap through the same
// mutations.
type heapTwin struct {
	h       utilityHeap
	ref     referenceHeap
	refItem []*refItem
}

func newHeapTwin(n int) *heapTwin {
	return &heapTwin{h: newUtilityHeap(n), refItem: make([]*refItem, n)}
}

// put pushes id when absent and re-keys it otherwise — markTried followed by
// setUtility/setScore, on both heaps.
func (tw *heapTwin) put(id int, u float64) {
	it := tw.refItem[id]
	if it == nil {
		it = &refItem{id: id, util: u}
		tw.refItem[id] = it
		heap.Push(&tw.ref, it)
		tw.h.push(id, u)
		return
	}
	if it.util != u {
		it.util = u
		heap.Fix(&tw.ref, it.index)
	}
	tw.h.set(id, u)
}

// checkInvariants verifies the heap property and that pos and items describe
// each other.
func (tw *heapTwin) checkInvariants(t *testing.T) {
	t.Helper()
	h := &tw.h
	if h.len() != tw.ref.Len() {
		t.Fatalf("heap holds %d entries, reference %d", h.len(), tw.ref.Len())
	}
	for i, e := range h.items {
		if h.pos[e.id] != i {
			t.Fatalf("pos[%d] = %d, entry sits at slot %d", e.id, h.pos[e.id], i)
		}
		if tw.refItem[e.id] == nil || tw.refItem[e.id].util != e.util {
			t.Fatalf("entry %+v disagrees with reference item %+v", e, tw.refItem[e.id])
		}
		if i > 0 && e.before(h.items[(i-1)/2]) {
			t.Fatalf("slot %d (%+v) orders before its parent %+v", i, e, h.items[(i-1)/2])
		}
	}
	for id, p := range h.pos {
		if p >= 0 && (p >= len(h.items) || h.items[p].id != id) {
			t.Fatalf("pos[%d] = %d points at a different entry", id, p)
		}
		if (p < 0) != (tw.refItem[id] == nil) {
			t.Fatalf("pos[%d] = %d but reference presence is %v", id, p, tw.refItem[id] != nil)
		}
	}
}

// checkTop compares top(k) with k reference pops and verifies that the call
// wrote nothing: items, pos and a second top are unchanged.
func (tw *heapTwin) checkTop(t *testing.T, k int) {
	t.Helper()
	h := &tw.h
	itemsBefore := append([]utilEntry(nil), h.items...)
	posBefore := append([]int(nil), h.pos...)

	// Dirty, non-empty scratch: top must append after ids/utils' contents and
	// ignore frontier's.
	ids, utils, frontier := h.top(k, []int{-7}, []float64{-7}, []int{99, 98, 97})
	if ids[0] != -7 || utils[0] != -7 {
		t.Fatalf("top(%d) overwrote the prefix it was asked to append to", k)
	}
	ids, utils = ids[1:], utils[1:]
	want := tw.ref.band(k)
	if len(ids) != len(want) || len(utils) != len(want) {
		t.Fatalf("top(%d) of %d entries returned %d ids and %d utils, reference popped %d", k, h.len(), len(ids), len(utils), len(want))
	}
	for i, it := range want {
		if ids[i] != it.id || utils[i] != it.util {
			t.Fatalf("top(%d)[%d] = (%d, %v), reference pop (%d, %v)", k, i, ids[i], utils[i], it.id, it.util)
		}
	}
	if !slices.Equal(h.items, itemsBefore) || !slices.Equal(h.pos, posBefore) {
		t.Fatalf("top(%d) wrote to the heap", k)
	}
	again, againUtils, _ := h.top(k, nil, nil, frontier)
	if !slices.Equal(again, ids) || !slices.Equal(againUtils, utils) {
		t.Fatalf("a second top(%d) differs from the first", k)
	}
}

// runHeapOps interprets an op-byte stream against a heap twin over n party
// ids. Utilities come from four values, zero among them, so most
// comparisons are id tie-breaks; every mutation is followed by an invariant
// check, and top is compared at the edge sizes on request and at the end.
func runHeapOps(t *testing.T, n int, ops []byte) {
	t.Helper()
	utils := [4]float64{0, 0.5, 2, 2.5}
	tw := newHeapTwin(n)
	topAtEdges := func() {
		m := tw.h.len()
		for _, k := range []int{0, 1, m - 1, m, m + 7} {
			tw.checkTop(t, k)
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		id := int(arg) % n
		switch op % 4 {
		case 0, 1: // push, or re-key to one of the four values
			tw.put(id, utils[(op>>2)%4])
		case 2: // re-set to the current value: must change nothing
			if it := tw.refItem[id]; it != nil {
				tw.put(id, it.util)
			}
		case 3:
			if op>>2&1 == 0 {
				tw.checkTop(t, int(arg))
			} else {
				topAtEdges()
			}
		}
		tw.checkInvariants(t)
	}
	topAtEdges()
}

func TestTopMatchesPopPush(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		n := 1 + r.Intn(96)
		ops := make([]byte, 2*(1+r.Intn(400)))
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		runHeapOps(t, n, ops)
	}
	// Distinct utilities: nothing ties, every re-key moves.
	tw := newHeapTwin(300)
	r := rng.New(99)
	for i := 0; i < 2000; i++ {
		tw.put(r.Intn(300), r.Float64())
	}
	tw.checkInvariants(t)
	for _, k := range []int{0, 1, 42, 256, tw.h.len() - 1, tw.h.len(), tw.h.len() + 7} {
		tw.checkTop(t, k)
	}
}

func FuzzHeapTop(f *testing.F) {
	f.Add(8, []byte{0, 1, 4, 2, 8, 3, 3, 2})
	f.Add(1, []byte{0, 0, 2, 0, 7, 0})
	f.Add(64, []byte{0x10, 0x20, 0x31, 0x21, 0x07, 0x05, 0xFE, 0x20, 0x03, 0x40})
	f.Fuzz(func(t *testing.T, n int, ops []byte) {
		if n < 1 || n > 256 || len(ops) > 4096 {
			t.Skip()
		}
		runHeapOps(t, n, ops)
	})
}

// referenceSelect is the parent's fleet-scale Oort.Select: the same
// exploration draw, then the candidate band popped from the pointer heap,
// scored with the staleness bonus recomputed per candidate, sampled, and
// pushed back. It reads s's state but takes the band from ref, the mirror
// the test keeps of s's tried set.
func referenceSelect(s *Oort, ref *referenceHeap, round, target int) []int {
	if target > s.numParties {
		target = s.numParties
	}
	request := target
	if s.sawStrag {
		request = int(math.Ceil(overProvisionFactor * float64(target)))
		if request > s.numParties {
			request = s.numParties
		}
	}
	nUntried := len(s.untried)
	nTried := ref.Len()
	nExplore := int(math.Round(s.explore * float64(request)))
	if nExplore > nUntried {
		nExplore = nUntried
	}
	nExploit := request - nExplore
	if nExploit > nTried {
		nExplore = minInt(request, nUntried)
		nExploit = minInt(request-nExplore, nTried)
	}

	selected := make([]int, 0, request)
	if nExplore > 0 {
		for _, j := range s.r.SampleWithoutReplacement(nUntried, nExplore) {
			selected = append(selected, s.untried[j])
		}
	}
	if nExploit > 0 {
		band := candidatePool
		if band < 2*request {
			band = 2 * request
		}
		if band > nTried {
			band = nTried
		}
		var cand []*refItem
		var ids []int
		var scores []float64
		for len(cand) < band {
			it := heap.Pop(ref).(*refItem)
			cand = append(cand, it)
			ids = append(ids, it.id)
			u := s.utility[it.id]
			if age := round - s.lastUsed[it.id]; age > 0 && round > 0 {
				u += stalenessWeight * u * math.Sqrt(math.Log(float64(round+1))/float64(age))
			}
			scores = append(scores, u)
		}
		for i := 0; i < nExploit && len(ids) > 0; i++ {
			j := s.r.Categorical(scores)
			selected = append(selected, ids[j])
			last := len(ids) - 1
			ids[j], scores[j] = ids[last], scores[last]
			ids, scores = ids[:last], scores[:last]
		}
		for _, it := range cand {
			heap.Push(ref, it)
		}
	}
	return selected
}

// TestOortScaleMatchesReference runs two fleet-scale Oort selectors from one
// seed through 1,000 rounds of the same feedback: one selects through
// selectScale, the other through the parent's pop/score/draw/push-back copy
// above. Losses come from four values (utility ties), every seventh invited
// party straggles, durations put some completions over the slow threshold,
// and the target cycles through sizes that make the band the whole tried
// set, exceed candidatePool, and exceed the population.
func TestOortScaleMatchesReference(t *testing.T) {
	t.Parallel()
	const n = 700
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 1 + i%3
	}
	got := newOort(n, sizes, 1, rng.New(23))
	twin := newOort(n, sizes, 1, rng.New(23))
	var ref referenceHeap
	refItems := make([]*refItem, n)
	targets := []int{5, 42, 150, 17, 900, 42}

	for round := 0; round < 1000; round++ {
		target := targets[round%len(targets)]
		a := got.Select(round, target)
		b := referenceSelect(twin, &ref, round, target)
		if !slices.Equal(a, b) {
			t.Fatalf("round %d (target %d, %d tried): cohorts differ\n new: %v\n ref: %v", round, target, ref.Len(), a, b)
		}
		assertUniqueInRange(t, a, n)

		fb := fl.RoundFeedback{
			Round:    round,
			Selected: a,
			SqLoss:   map[int]float64{},
			Duration: map[int]float64{},
		}
		for i, id := range a {
			if (i+round)%7 == 3 {
				fb.Stragglers = append(fb.Stragglers, id)
				continue
			}
			fb.Completed = append(fb.Completed, id)
			loss := float64((id+round/50)%4) / 2
			fb.SqLoss[id] = loss * loss
			fb.Duration[id] = 1 + float64((id+round)%5)
		}
		got.Observe(fb)
		twin.Observe(fb)
		// Mirror the tried set into the reference heap: markTried's push and
		// setUtility's re-key.
		for _, ids := range [][]int{fb.Completed, fb.Stragglers} {
			for _, id := range ids {
				u := twin.utility[id]
				if it := refItems[id]; it == nil {
					refItems[id] = &refItem{id: id, util: u}
					heap.Push(&ref, refItems[id])
				} else if it.util != u {
					it.util = u
					heap.Fix(&ref, it.index)
				}
			}
		}
	}
	if !got.sawStrag || len(got.untried) != 0 {
		t.Fatalf("scenario never left exploration: sawStrag=%v, %d untried", got.sawStrag, len(got.untried))
	}
}
