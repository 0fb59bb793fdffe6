// Package partition distributes a centralized dataset across FL parties.
//
// The headline strategy is Dirichlet Allocation (paper §4.3): for every
// label l a proportion vector p ~ Dir_N(alpha) decides how that label's
// samples are split across the N parties. alpha→0 gives each party data from
// essentially one label (extreme non-IID); alpha>=1 approaches IID. The
// package also provides IID and label-shard partitioners and helpers to
// compute the per-party label-distribution vectors FLIPS clusters on.
package partition

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"flips/internal/dataset"
	"flips/internal/rng"
	"flips/internal/tensor"
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

// LabelDistribution returns the label-count vector ld_i = {l_1 ... l_g}
// (paper §3.1) for the samples at the given indices.
func LabelDistribution(ds *dataset.Dataset, indices []int) tensor.Vec {
	ld := tensor.NewVec(ds.NumClasses())
	for _, i := range indices {
		ld[ds.Samples[i].Y]++
	}
	return ld
}

// LabelDistributions returns one label-count vector per party — the LD set
// FLIPS submits to the TEE for clustering.
func LabelDistributions(ds *dataset.Dataset, p *Partition) []tensor.Vec {
	out := make([]tensor.Vec, p.NumParties())
	for i, indices := range p.Parties {
		out[i] = LabelDistribution(ds, indices)
	}
	return out
}

// NormalizedLabelDistributions returns per-party label *proportion* vectors,
// which is what the clustering operates on so that party dataset size does
// not dominate the label mix.
func NormalizedLabelDistributions(ds *dataset.Dataset, p *Partition) []tensor.Vec {
	out := LabelDistributions(ds, p)
	for i := range out {
		out[i].Normalize()
	}
	return out
}

// largestRemainderApportion converts fractional proportions over n items to
// integer counts summing exactly to n (Hamilton's method): every party gets
// the floor of its exact share, and the items left over go one each to the
// largest fractional remainders, ties to the lower index. One sort replaces
// a rescan of all parties per leftover item, so a label costs O(N log N)
// instead of O(N · leftover) — the leftover count is itself ~N/2.
func largestRemainderApportion(props []float64, n int) []int {
	counts := make([]int, len(props))
	fracs := make([]float64, len(props))
	assigned := 0
	for i, p := range props {
		exact := p * float64(n)
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
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(fracs[b], fracs[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
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
