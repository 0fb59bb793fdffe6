package partition

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"flips/internal/dataset"
	"flips/internal/rng"
	"flips/internal/tensor"
)

func makeDataset(t *testing.T, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	train, _, err := dataset.Generate(dataset.ECG().WithSizes(n, 50), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return train
}

// labelCounts counts the labels of the samples at the given indices.
func labelCounts(ds *dataset.Dataset, indices []int) tensor.Vec {
	ld := tensor.NewVec(ds.NumClasses())
	for _, i := range indices {
		ld[ds.Samples[i].Y]++
	}
	return ld
}

// TotalSamples returns the number of assigned samples across all parties.
func (p *Partition) TotalSamples() int {
	var n int
	for _, idx := range p.Parties {
		n += len(idx)
	}
	return n
}

func assertExactCover(t *testing.T, ds *dataset.Dataset, p *Partition) {
	t.Helper()
	seen := make([]int, ds.Len())
	for _, party := range p.Parties {
		for _, idx := range party {
			if idx < 0 || idx >= ds.Len() {
				t.Fatalf("index %d out of range", idx)
			}
			seen[idx]++
		}
	}
	for idx, c := range seen {
		if c != 1 {
			t.Fatalf("sample %d assigned %d times", idx, c)
		}
	}
}

func TestDirichletExactCover(t *testing.T) {
	t.Parallel()
	ds := makeDataset(t, 2000, 1)
	for _, alpha := range []float64{0.1, 0.3, 0.6, 1, 10} {
		p, err := Dirichlet(ds, 40, alpha, rng.New(7))
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		assertExactCover(t, ds, p)
		if p.TotalSamples() != ds.Len() {
			t.Fatalf("alpha=%v: total %d != %d", alpha, p.TotalSamples(), ds.Len())
		}
	}
}

func TestDirichletNoEmptyParties(t *testing.T) {
	t.Parallel()
	ds := makeDataset(t, 500, 2)
	p, err := Dirichlet(ds, 100, 0.05, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, party := range p.Parties {
		if len(party) == 0 {
			t.Fatalf("party %d empty", i)
		}
	}
}

func TestDirichletSkewIncreasesAsAlphaDecreases(t *testing.T) {
	t.Parallel()
	ds := makeDataset(t, 4000, 4)
	entropyAt := func(alpha float64) float64 {
		p, err := Dirichlet(ds, 50, alpha, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		var mean float64
		for _, indices := range p.Parties {
			var h float64
			for _, q := range labelCounts(ds, indices).Normalize() {
				if q > 0 {
					h -= q * math.Log(q)
				}
			}
			mean += h
		}
		return mean / float64(len(p.Parties))
	}
	lo, hi := entropyAt(0.1), entropyAt(5)
	if lo >= hi {
		t.Fatalf("expected lower label entropy at alpha=0.1 (%v) than alpha=5 (%v)", lo, hi)
	}
}

func TestDirichletValidation(t *testing.T) {
	t.Parallel()
	ds := makeDataset(t, 100, 5)
	if _, err := Dirichlet(ds, 0, 0.3, rng.New(1)); err == nil {
		t.Fatal("expected error for 0 parties")
	}
	if _, err := Dirichlet(ds, 10, 0, rng.New(1)); err == nil {
		t.Fatal("expected error for alpha=0")
	}
	if _, err := Dirichlet(ds, 101, 0.3, rng.New(1)); err == nil {
		t.Fatal("expected error for more parties than samples")
	}
}

func TestLargestRemainderApportion(t *testing.T) {
	t.Parallel()
	counts := largestRemainderApportion([]float64{0.5, 0.3, 0.2}, 10)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10 {
		t.Fatalf("apportioned %d of 10", total)
	}
	if counts[0] != 5 || counts[1] != 3 || counts[2] != 2 {
		t.Fatalf("counts %v", counts)
	}
}

func TestApportionPropertyConservesN(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := rng.New(seed)
		dim := 1 + r.Intn(20)
		props := r.Dirichlet(0.5, dim)
		n := r.Intn(1000)
		counts := largestRemainderApportion(props, n)
		total := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			total += c
		}
		return total == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletDeterministic(t *testing.T) {
	t.Parallel()
	ds := makeDataset(t, 600, 13)
	a, err := Dirichlet(ds, 15, 0.3, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dirichlet(ds, 15, 0.3, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Parties {
		if len(a.Parties[i]) != len(b.Parties[i]) {
			t.Fatalf("party %d sizes differ", i)
		}
		for j := range a.Parties[i] {
			if a.Parties[i][j] != b.Parties[i][j] {
				t.Fatalf("party %d index %d differs", i, j)
			}
		}
	}
}

// referenceApportion is the quadratic Hamilton apportionment the sort in
// largestRemainderApportion replaced: one scan of all parties per leftover
// item. It stays here as the oracle for tie-breaks.
func referenceApportion(props []float64, n int) []int {
	counts := make([]int, len(props))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(props))
	assigned := 0
	for i, p := range props {
		exact := p * float64(n)
		counts[i] = int(exact)
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
		assigned += counts[i]
	}
	// Distribute the remaining items to the largest remainders
	// (deterministic tie-break by index).
	for assigned < n {
		best := -1
		for j := range rems {
			if best == -1 || rems[j].frac > rems[best].frac {
				best = j
			}
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return counts
}

// referenceTopUp is the quadratic top-up the donor heap replaced: one scan of
// all parties per empty party.
func referenceTopUp(p *Partition, r *rng.Source) {
	for i := range p.Parties {
		if len(p.Parties[i]) > 0 {
			continue
		}
		// Find the largest donor.
		donor := -1
		for j := range p.Parties {
			if donor == -1 || len(p.Parties[j]) > len(p.Parties[donor]) {
				donor = j
			}
		}
		if donor == -1 || len(p.Parties[donor]) <= 1 {
			return
		}
		d := p.Parties[donor]
		pick := r.Intn(len(d))
		p.Parties[i] = append(p.Parties[i], d[pick])
		d[pick] = d[len(d)-1]
		p.Parties[donor] = d[:len(d)-1]
	}
}

// referenceDirichlet is Dirichlet over the two reference loops, for inputs
// Dirichlet accepts.
func referenceDirichlet(ds *dataset.Dataset, parties int, alpha float64, r *rng.Source) *Partition {
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
		counts := referenceApportion(r.Dirichlet(alpha, parties), len(indices))
		pos := 0
		for party, c := range counts {
			p.Parties[party] = append(p.Parties[party], indices[pos:pos+c]...)
			pos += c
		}
	}
	referenceTopUp(p, r)
	return p
}

func assertSamePartition(t *testing.T, want, got *Partition) {
	t.Helper()
	if len(want.Parties) != len(got.Parties) {
		t.Fatalf("%d parties, reference has %d", len(got.Parties), len(want.Parties))
	}
	for i := range want.Parties {
		if !slices.Equal(want.Parties[i], got.Parties[i]) {
			t.Fatalf("party %d holds %v, reference %v", i, got.Parties[i], want.Parties[i])
		}
	}
}

func TestApportionMatchesReference(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name  string
		props []float64
		n     int
	}{
		{"one party", []float64{1}, 7},
		{"nothing to place", []float64{0.5, 0.5}, 0},
		{"all remainders tied", []float64{0.25, 0.25, 0.25, 0.25}, 10},
		{"tied remainders around a larger one", []float64{0.15, 0.35, 0.15, 0.35}, 10},
		{"exact shares, no leftover", []float64{0.5, 0.3, 0.2}, 10},
		{"zero mass", []float64{0, 0, 0}, 8},
		{"zero mass, one party", []float64{0}, 3},
		{"mass below one", []float64{0.2, 0, 0.3}, 9},
		{"zero entries beside a full one", []float64{0, 1, 0, 0}, 5},
	}
	for _, c := range cases {
		if want, got := referenceApportion(c.props, c.n), largestRemainderApportion(c.props, c.n); !slices.Equal(want, got) {
			t.Errorf("%s: counts %v, reference %v", c.name, got, want)
		}
	}
	// Generated inputs: Dirichlet draws as Dirichlet makes them (sparse at
	// small alpha) and coarse grids, where many remainders tie exactly.
	r := rng.New(99)
	for i := 0; i < 400; i++ {
		dim := 1 + r.Intn(300)
		n := r.Intn(5000)
		props := r.Dirichlet([]float64{0.05, 0.3, 1, 10}[i%4], dim)
		if i%5 == 0 {
			grid := float64(1 + r.Intn(8))
			var sum float64
			for j := range props {
				props[j] = float64(r.Intn(4)) / grid
				sum += props[j]
			}
			for j := range props {
				if sum > 0 {
					props[j] /= sum
				}
			}
		}
		if want, got := referenceApportion(props, n), largestRemainderApportion(props, n); !slices.Equal(want, got) {
			t.Fatalf("draw %d (dim %d, n %d): counts %v, reference %v", i, dim, n, got, want)
		}
	}
}

func TestTopUpMatchesReference(t *testing.T) {
	t.Parallel()
	build := func(sizes []int) *Partition {
		p := &Partition{Parties: make([][]int, len(sizes))}
		next := 0
		for i, n := range sizes {
			for j := 0; j < n; j++ {
				p.Parties[i] = append(p.Parties[i], next)
				next++
			}
		}
		return p
	}
	cases := []struct {
		name  string
		sizes []int
	}{
		{"one party", []int{4}},
		{"one empty party", []int{0}},
		{"no empty party", []int{2, 1, 3}},
		{"tied donors", []int{0, 3, 3, 0, 3, 0}},
		{"donor shrinks to one", []int{0, 0, 0, 4, 0}},
		{"donors run out", []int{0, 2, 0, 0, 1}},
		{"nothing to donate", []int{0, 1, 1, 0}},
		{"empty parties first and last", []int{0, 5, 0, 2, 0, 7, 0}},
	}
	for _, c := range cases {
		want, got := build(c.sizes), build(c.sizes)
		rw, rg := rng.New(5), rng.New(5)
		referenceTopUp(want, rw)
		topUpEmptyParties(got, rg)
		assertSamePartition(t, want, got)
		if rw.Uint64() != rg.Uint64() {
			t.Errorf("%s: random draws differ from the reference", c.name)
		}
	}
	r := rng.New(17)
	for i := 0; i < 200; i++ {
		sizes := make([]int, 1+r.Intn(400))
		for j := range sizes {
			if r.Float64() < 0.3 {
				sizes[j] = 1 + r.Intn(6)
			}
		}
		want, got := build(sizes), build(sizes)
		referenceTopUp(want, rng.New(uint64(i)))
		topUpEmptyParties(got, rng.New(uint64(i)))
		assertSamePartition(t, want, got)
	}
}

// TestDirichletMatchesReference pins whole partitions, draw order included:
// alpha 0.05 over 3000 parties leaves thousands of them empty after
// apportionment, so the top-up heap runs through long donor sequences.
func TestDirichletMatchesReference(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		n, parties int
		alpha      float64
	}{
		{1, 1, 0.3}, {50, 50, 0.05}, {600, 15, 0.3}, {2000, 200, 0.6}, {6000, 3000, 0.05}, {4000, 2000, 10},
	} {
		ds := makeDataset(t, c.n, 21)
		rw, rg := rng.New(8), rng.New(8)
		want := referenceDirichlet(ds, c.parties, c.alpha, rw)
		got, err := Dirichlet(ds, c.parties, c.alpha, rg)
		if err != nil {
			t.Fatalf("n=%d parties=%d alpha=%v: %v", c.n, c.parties, c.alpha, err)
		}
		assertSamePartition(t, want, got)
		if rw.Uint64() != rg.Uint64() {
			t.Fatalf("n=%d parties=%d alpha=%v: random draws differ from the reference", c.n, c.parties, c.alpha)
		}
	}
}

// TestBlocksStartBoundsOf checks that Start cuts the blocks Of assigns, by
// brute force for every id space up to 300 and block count up to 40 (more
// blocks than ids included): each id lies in [Start(b), Start(b+1)) of its
// block b, Start(0) is 0 and Start(K) is N. The largest cases keep N·K
// just below 2³¹, the domain a 32-bit int holds.
func TestBlocksStartBoundsOf(t *testing.T) {
	t.Parallel()
	check := func(s Blocks, ids []int) {
		if s.Start(0) != 0 || s.Start(s.K) != s.N {
			t.Fatalf("%+v: blocks span [%d, %d)", s, s.Start(0), s.Start(s.K))
		}
		for _, id := range ids {
			b := s.Of(id)
			if b < 0 || b >= s.K || id < s.Start(b) || id >= s.Start(b+1) {
				t.Fatalf("%+v: id %d in block %d, which spans [%d, %d)", s, id, b, s.Start(b), s.Start(b+1))
			}
		}
	}
	for n := 1; n <= 300; n++ {
		ids := make([]int, n)
		for id := range ids {
			ids[id] = id
		}
		for k := 1; k <= 40; k++ {
			check(Blocks{N: n, K: k}, ids)
		}
	}
	const edge = 46340 // 46340² < 2³¹ - 1
	for _, s := range []Blocks{{N: edge, K: edge}, {N: edge, K: 7}, {N: 7, K: edge}} {
		check(s, []int{0, 1, s.N / 2, s.N - 2, s.N - 1})
	}
}
