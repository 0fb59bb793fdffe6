package cluster

import (
	"math"
	"testing"

	"flips/internal/rng"
	"flips/internal/tensor"
)

// refAgglomerative is the reference Agglomerative must reproduce merge for
// merge: every merge rescans every active pair in (i, j) order for the
// closest, O(n³) in all. Like Agglomerative it works in d.
func refAgglomerative(d *tensor.Mat, k int) []int {
	n := d.Rows
	active := make([]bool, n)
	members := make([][]int, n)
	for i := 0; i < n; i++ {
		active[i] = true
		members[i] = []int{i}
	}

	remaining := n
	for remaining > k {
		// Find the closest active pair (deterministic tie-break: lowest ids).
		bi, bj, best := -1, -1, 0.0
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				dij := d.At(i, j)
				if bi == -1 || dij < best {
					bi, bj, best = i, j, dij
				}
			}
		}
		// Merge bj into bi.
		ni := float64(len(members[bi]))
		nj := float64(len(members[bj]))
		for m := 0; m < n; m++ {
			if !active[m] || m == bi || m == bj {
				continue
			}
			nd := (float64(ni*d.At(bi, m)) + float64(nj*d.At(bj, m))) / (ni + nj)
			d.Set(bi, m, nd)
			d.Set(m, bi, nd)
		}
		members[bi] = append(members[bi], members[bj]...)
		members[bj] = nil
		active[bj] = false
		remaining--
	}

	assignments := make([]int, n)
	cid := 0
	for i := 0; i < n; i++ {
		if !active[i] {
			continue
		}
		for _, m := range members[i] {
			assignments[m] = cid
		}
		cid++
	}
	return assignments
}

// tiePalette is where the generated matrices draw most entries from, so
// that equal distances, signed zeros, infinities and NaNs are common.
var tiePalette = []float64{0, math.Copysign(0, -1), 0.25, 0.5, 1, 2, math.Inf(1), math.NaN()}

// checkAgglomerativeMatches clusters copies of d down to every k from its
// size to lo with both implementations. Each merge leaves one cluster fewer,
// so equal assignments at every k are equal picks at every merge; equal
// workspaces word for word are equal Lance-Williams arithmetic.
func checkAgglomerativeMatches(t *testing.T, d *tensor.Mat, lo int) {
	t.Helper()
	for k := d.Rows; k >= lo; k-- {
		got := &tensor.Mat{Rows: d.Rows, Cols: d.Cols, Data: d.Data.Clone()}
		want := &tensor.Mat{Rows: d.Rows, Cols: d.Cols, Data: d.Data.Clone()}
		ga, err := Agglomerative(got, k)
		if err != nil {
			t.Fatal(err)
		}
		wa := refAgglomerative(want, k)
		for i := range wa {
			if ga[i] != wa[i] {
				t.Fatalf("n=%d k=%d: point %d in cluster %d, reference %d (matrix %v)", d.Rows, k, i, ga[i], wa[i], d.Data)
			}
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("n=%d k=%d: workspace word %d = %v, reference %v (matrix %v)", d.Rows, k, i, got.Data[i], want.Data[i], d.Data)
			}
		}
	}
}

// tieMatrix is an n×n matrix whose entries come from tiePalette with
// probability tieShare and are uniform in [0, 2) otherwise; half are
// symmetric.
func tieMatrix(r *rng.Source, n int, tieShare float64) *tensor.Mat {
	d := tensor.NewMat(n, n)
	symmetric := r.Intn(2) == 0
	draw := func() float64 {
		if r.Float64() < tieShare {
			return tiePalette[r.Intn(len(tiePalette))]
		}
		return 2 * r.Float64()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
			case symmetric && j < i:
				d.Set(i, j, d.At(j, i))
			default:
				d.Set(i, j, draw())
			}
		}
	}
	return d
}

// TestAgglomerativeMatchesReference compares the cached scan with the full
// rescan on 3,000 matrices at every k from their size down: small ones to
// one cluster, larger ones over their last merges or to one cluster, and
// cosine matrices of gradients with repeated and zero rows to a drawn k.
func TestAgglomerativeMatchesReference(t *testing.T) {
	t.Parallel()
	r := rng.New(41)
	for trial := 0; trial < 3000; trial++ {
		switch trial % 3 {
		case 0: // small, every k
			checkAgglomerativeMatches(t, tieMatrix(r, 2+r.Intn(9), r.Float64()), 1)
		case 1: // larger
			n := 10 + r.Intn(30)
			checkAgglomerativeMatches(t, tieMatrix(r, n, 0.5*r.Float64()), max(1, n-3))
			checkAgglomerativeMatches(t, tieMatrix(r, n, 0.5*r.Float64()), 1)
		default: // cosine distances of gradients, some repeated, some zero
			n := 4 + r.Intn(36)
			points := make([]tensor.Vec, n)
			for i := range points {
				switch {
				case i > 0 && r.Intn(4) == 0:
					points[i] = points[r.Intn(i)]
				case r.Intn(10) == 0:
					points[i] = tensor.NewVec(5)
				default:
					points[i] = tensor.NewVec(5)
					r.Normals(points[i])
				}
			}
			checkAgglomerativeMatches(t, CosineDistanceMatrix(points), 1+r.Intn(n))
		}
	}
}

// FuzzAgglomerative clusters a matrix the fuzzer writes, its first byte the
// size and each later byte one entry (a tiePalette value or byte/64), and
// compares every k with the reference.
func FuzzAgglomerative(f *testing.F) {
	f.Add([]byte{5, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{4, 7, 0, 1, 2, 3, 0, 0, 0, 7, 7, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{6, 2, 2, 2, 9, 9, 9, 2, 2, 2, 40, 41, 1, 0, 0, 6, 6, 6, 6, 2, 2, 3, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, entries := 2+int(data[0])%11, data[1:]
		d := tensor.NewMat(n, n)
		for i := range d.Data {
			if b := entries[i%len(entries)]; int(b) < len(tiePalette) {
				d.Data[i] = tiePalette[b]
			} else {
				d.Data[i] = float64(b) / 64
			}
		}
		checkAgglomerativeMatches(t, d, 1)
	})
}
