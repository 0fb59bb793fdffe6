// Package partition distributes a centralized dataset across FL parties.
//
// The headline strategy is Dirichlet Allocation (paper §4.3): for every
// label l a proportion vector p ~ Dir_N(alpha) decides how that label's
// samples are split across the N parties. alpha→0 gives each party data from
// essentially one label (extreme non-IID); alpha>=1 approaches IID. The
// per-party label-distribution vectors FLIPS clusters on are counted by
// fl.ProfileParties over the samples a partition deals.
package partition

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"flips/internal/dataset"
	"flips/internal/rng"
)

// Partition assigns every sample index of a dataset to exactly one party.
type Partition struct {
	// Parties[i] lists the dataset sample indices owned by party i.
	Parties [][]int
}

// NumParties returns the number of parties in the partition.
func (p *Partition) NumParties() int { return len(p.Parties) }

// Dirichlet partitions ds across parties using per-label Dirichlet draws
// with concentration alpha. Every party is guaranteed at least one sample
// (zero-sample parties are topped up from the largest party) so that local
// training is always defined.
func Dirichlet(ds *dataset.Dataset, parties int, alpha float64, r *rng.Source) (*Partition, error) {
	if err := CheckDirichlet(ds.Len(), parties, alpha); err != nil {
		return nil, err
	}

	// Bucket sample indices by label.
	byLabel := make([][]int, ds.NumClasses())
	for i, s := range ds.Samples {
		byLabel[s.Y] = append(byLabel[s.Y], i)
	}

	p := &Partition{Parties: make([][]int, parties)}
	for _, indices := range byLabel {
		if len(indices) == 0 {
			continue
		}
		r.Shuffle(len(indices), func(a, b int) { indices[a], indices[b] = indices[b], indices[a] })
		props := r.Dirichlet(alpha, parties)
		counts := largestRemainderApportion(props, len(indices))
		pos := 0
		for party, c := range counts {
			p.Parties[party] = append(p.Parties[party], indices[pos:pos+c]...)
			pos += c
		}
	}
	topUpEmptyParties(p, r)
	return p, nil
}

// CheckDirichlet reports whether Dirichlet accepts a samples-sized dataset,
// a party count and a concentration — every reason it can refuse, none of
// which needs the data, so a caller can check a job before generating it.
func CheckDirichlet(samples, parties int, alpha float64) error {
	if parties <= 0 {
		return fmt.Errorf("partition: non-positive party count %d", parties)
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		// NaN slips through a plain sign test and then hangs the Gamma
		// sampler; Inf degenerates the proportion vector. Reject both.
		return fmt.Errorf("partition: alpha %v not a positive finite number", alpha)
	}
	if samples < parties {
		return fmt.Errorf("partition: %d samples cannot cover %d parties", samples, parties)
	}
	return nil
}

// largestRemainderApportion converts fractional proportions over n items to
// integer counts summing exactly to n (Hamilton's method): every party gets
// the floor of its exact share, and the items left over go one each to the
// largest fractional remainders, ties to the lower index. The parties that
// receive one are selected, not sorted (selectFirst), so a label costs O(N)
// on average instead of a rescan of all parties per leftover item — the
// leftover count is itself ~N/2.
func largestRemainderApportion(props []float64, n int) []int {
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
	order := make([]int, len(props))
	for i := range order {
		order[i] = i
	}
	selectFirst(order, min(left, len(order)), fracs)
	for _, i := range order[:min(left, len(order))] {
		counts[i]++
	}
	if left > len(order) {
		// Proportions that sum below one (a zero-mass vector) leave more
		// items than parties; once every remainder is spent the rest land on
		// party 0.
		counts[0] += left - len(order)
	}
	return counts
}

// remainderFirst reports whether party a's remainder is handed an item before
// party b's: the larger remainder first, NaN below every number (as
// cmp.Compare orders it), and between equal remainders the lower index. The
// order is strict and total over distinct parties.
func remainderFirst(fracs []float64, a, b int) bool {
	if c := cmp.Compare(fracs[a], fracs[b]); c != 0 {
		return c > 0
	}
	return a < b
}

// selectFirst reorders order so that its first k entries are the k parties
// that come first under remainderFirst, in no particular order. It is
// quickselect: each pass partitions the window holding position k around a
// median-of-three pivot and keeps the side k falls in, so it is linear on
// average; a window still open after 2·log2(n) passes is sorted outright,
// which bounds the worst case at O(n log n). remainderFirst is a strict total
// order, so the k chosen are exactly the ones a full sort puts first.
func selectFirst(order []int, k int, fracs []float64) {
	lo, hi := 0, len(order)
	for budget := 2 * bits.Len(uint(len(order))); lo < k && k < hi; budget-- {
		if budget == 0 || hi-lo <= 16 {
			slices.SortFunc(order[lo:hi], func(a, b int) int {
				if remainderFirst(fracs, a, b) {
					return -1
				}
				return 1
			})
			return
		}
		p := lo + partitionAround(order[lo:hi], fracs)
		if p < k {
			lo = p + 1
		} else {
			hi = p
		}
	}
}

// partitionAround moves the median of w's first, middle and last party to
// its final place under remainderFirst, the parties before it to its left
// and the rest to its right, and returns its index.
func partitionAround(w []int, fracs []float64) int {
	last, mid := len(w)-1, len(w)/2
	if remainderFirst(fracs, w[mid], w[0]) {
		w[mid], w[0] = w[0], w[mid]
	}
	if remainderFirst(fracs, w[last], w[mid]) {
		w[last], w[mid] = w[mid], w[last]
		if remainderFirst(fracs, w[mid], w[0]) {
			w[mid], w[0] = w[0], w[mid]
		}
	}
	w[mid], w[last] = w[last], w[mid]
	pivot, i := w[last], 0
	for j, party := range w[:last] {
		if remainderFirst(fracs, party, pivot) {
			w[i], w[j] = party, w[i]
			i++
		}
	}
	w[i], w[last] = pivot, w[i]
	return i
}

// topUpEmptyParties moves one sample from the largest party (ties to the
// lower index) to each empty party, in party order, so every party can train
// locally. The donors sit in a binary heap, so a top-up costs O(log N)
// instead of a scan of all parties — at alpha 0.05 most of a fleet starts
// empty. A topped-up party holds one sample and a donor needs two, so
// recipients never enter the heap.
func topUpEmptyParties(p *Partition, r *rng.Source) {
	var empty, donors []int
	for i, idx := range p.Parties {
		if len(idx) == 0 {
			empty = append(empty, i)
		} else {
			donors = append(donors, i)
		}
	}
	if len(empty) == 0 || len(donors) == 0 {
		return
	}
	before := func(a, b int) bool {
		if la, lb := len(p.Parties[a]), len(p.Parties[b]); la != lb {
			return la > lb
		}
		return a < b
	}
	// siftDown restores the heap below position i after its party shrank.
	siftDown := func(i int) {
		for {
			top := i
			for c := 2*i + 1; c <= 2*i+2 && c < len(donors); c++ {
				if before(donors[c], donors[top]) {
					top = c
				}
			}
			if top == i {
				return
			}
			donors[i], donors[top] = donors[top], donors[i]
			i = top
		}
	}
	for i := len(donors)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for _, i := range empty {
		donor := donors[0]
		d := p.Parties[donor]
		if len(d) <= 1 {
			return // nothing to donate; caller's size validation prevents this
		}
		pick := r.Intn(len(d))
		p.Parties[i] = append(p.Parties[i], d[pick])
		d[pick] = d[len(d)-1]
		p.Parties[donor] = d[:len(d)-1]
		siftDown(0)
	}
}

// Blocks cuts the id space [0, N) into K contiguous blocks: id lies in
// block ⌊id·K/N⌋, so block b holds [⌈b·N/K⌉, ⌈(b+1)·N/K⌉), balanced within
// one. The engine's shards, the chaos regions and the dist workers' slots
// all cut the party space this way, so at equal counts their block b holds
// the same parties. Both methods stay in the integer domain of the product
// N·K.
type Blocks struct{ N, K int }

// Of returns the block holding id, for id in [0, N).
func (s Blocks) Of(id int) int { return id * s.K / s.N }

// Start returns block b's first id, for b in [0, K]; Start(K) is N.
func (s Blocks) Start(b int) int {
	lo := b * s.N / s.K
	if lo*s.K < b*s.N {
		lo++
	}
	return lo
}
