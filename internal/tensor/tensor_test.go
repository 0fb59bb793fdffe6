package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"flips/internal/rng"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVecAddSub(t *testing.T) {
	t.Parallel()
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	sum := v.Add(w)
	want := Vec{5, 7, 9}
	for i := range want {
		if sum[i] != want[i] {
			t.Fatalf("Add: got %v want %v", sum, want)
		}
	}
	diff := sum.Sub(w)
	for i := range v {
		if diff[i] != v[i] {
			t.Fatalf("Sub did not invert Add: got %v want %v", diff, v)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	t.Parallel()
	v := Vec{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestAxpy(t *testing.T) {
	t.Parallel()
	v := Vec{1, 1}
	v.Axpy(2, Vec{3, 4})
	if v[0] != 7 || v[1] != 9 {
		t.Fatalf("Axpy result %v", v)
	}
}

func TestDotAndNorm(t *testing.T) {
	t.Parallel()
	v := Vec{3, 4}
	if v.Dot(v) != 25 {
		t.Fatalf("Dot = %v", v.Dot(v))
	}
	if v.Norm2() != 5 {
		t.Fatalf("Norm2 = %v", v.Norm2())
	}
}

func TestDistMatchesNormOfDiff(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(20)
		a, b := NewVec(n), NewVec(n)
		for i := 0; i < n; i++ {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		return almostEqual(a.Dist(b), a.Sub(b).Norm2(), 1e-12)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCosineSim(t *testing.T) {
	t.Parallel()
	a := Vec{1, 0}
	b := Vec{0, 1}
	if got := a.CosineSim(b); got != 0 {
		t.Fatalf("orthogonal cosine = %v", got)
	}
	if got := a.CosineSim(Vec{2, 0}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("parallel cosine = %v", got)
	}
	if got := a.CosineSim(Vec{0, 0}); got != 0 {
		t.Fatalf("zero-vector cosine = %v", got)
	}
	if got := a.CosineSim(Vec{-3, 0}); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("antiparallel cosine = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	t.Parallel()
	v := Vec{2, 2, 4}
	v.Normalize()
	if !almostEqual(v.Sum(), 1, 1e-12) {
		t.Fatalf("normalized sum = %v", v.Sum())
	}
	if !almostEqual(v[2], 0.5, 1e-12) {
		t.Fatalf("normalized v[2] = %v", v[2])
	}
	z := Vec{0, 0}
	z.Normalize() // must not panic or produce NaN
	if z[0] != 0 {
		t.Fatal("zero vector changed by Normalize")
	}
}

func TestArgMax(t *testing.T) {
	t.Parallel()
	if (Vec{}).ArgMax() != -1 {
		t.Fatal("empty ArgMax should be -1")
	}
	if (Vec{1, 5, 5, 2}).ArgMax() != 1 {
		t.Fatal("ArgMax should return first winner on ties")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(10)
		v := NewVec(n)
		for i := range v {
			v[i] = r.NormFloat64() * 50 // large magnitudes stress stability
		}
		arg := v.ArgMax()
		v.SoftmaxInPlace()
		var sum float64
		for _, x := range v {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
			sum += x
		}
		// Softmax preserves the argmax and sums to 1.
		return almostEqual(sum, 1, 1e-9) && v.ArgMax() == arg
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vec{1}.Dot(Vec{1, 2})
}

func TestMatRowViewIsMutable(t *testing.T) {
	t.Parallel()
	m := NewMat(2, 3)
	m.Row(1)[2] = 42
	if m.At(1, 2) != 42 {
		t.Fatal("Row view does not alias matrix storage")
	}
}

func TestMulVec(t *testing.T) {
	t.Parallel()
	m := &Mat{Rows: 2, Cols: 2, Data: Vec{1, 2, 3, 4}}
	y := Vec{-1, -1} // overwritten, not accumulated into
	m.MulVecInto(y, Vec{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVecInto = %v", y)
	}
}

// saltedFill returns a filler of Gaussian data in which, when salted, every
// sixth word or so is a signed zero, an infinity, NaN or a subnormal: the
// values on which a reordered or regrouped float chain shows.
func saltedFill(seed uint64) func(v Vec, salted bool) {
	salt := []float64{
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
	}
	r := rng.New(seed)
	return func(v Vec, salted bool) {
		for i := range v {
			v[i] = r.NormFloat64()
			if salted && r.Intn(6) == 0 {
				v[i] = salt[r.Intn(len(salt))]
			}
		}
	}
}

// sameBits reports the first index at which a and b differ as bit patterns —
// zero signs and subnormals included — or -1. Two NaNs count as equal: which
// operand's sign and payload an add of two NaNs keeps is the instruction's
// operand order, which the register allocator picks, not the source.
func sameBits(a, b Vec) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

// expectPanics runs each call and fails unless it panics.
func expectPanics(t *testing.T, what string, calls map[string]func()) {
	t.Helper()
	for name, call := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted a %s of the wrong length", what, name)
				}
			}()
			call()
		}()
	}
}

// TestMulVecIntoMatchesRowDot pins the row-blocked kernel to the loop it
// replaced, dst[i] = Row(i).Dot(x), bit for bit: shapes on both sides of the
// four-row block and its remainder, data salted with signed zeros,
// infinities, NaN and subnormals.
func TestMulVecIntoMatchesRowDot(t *testing.T) {
	t.Parallel()
	fill := saltedFill(31)
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 32, 33} {
		for _, cols := range []int{1, 3, 32, 36, 187} {
			for _, salted := range []bool{false, true} {
				m := NewMat(rows, cols)
				x, dst := NewVec(cols), NewVec(rows)
				fill(m.Data, salted)
				fill(x, salted)
				fill(dst, false) // overwritten, never read
				m.MulVecInto(dst, x)
				for i := 0; i < rows; i++ {
					want := m.Row(i).Dot(x)
					if math.Float64bits(dst[i]) != math.Float64bits(want) {
						t.Fatalf("%dx%d salted=%v: dst[%d] = %v (%#x), Row(%d).Dot(x) = %v (%#x)",
							rows, cols, salted, i, dst[i], math.Float64bits(dst[i]), i, want, math.Float64bits(want))
					}
				}
			}
		}
	}

	m := NewMat(5, 3)
	expectPanics(t, "MulVecInto", map[string]func(){
		"x":   func() { m.MulVecInto(NewVec(5), NewVec(4)) },
		"dst": func() { m.MulVecInto(NewVec(4), NewVec(3)) },
	})
}

// TestAxpy4MatchesFourAxpys pins the four-term kernel to the four calls it
// stands for, bit for bit, on plain and salted data at lengths on both sides
// of anything a compiler might unroll by.
func TestAxpy4MatchesFourAxpys(t *testing.T) {
	t.Parallel()
	fill := saltedFill(37)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 32, 36, 187} {
		for _, salted := range []bool{false, true} {
			var x [4]Vec
			a := NewVec(4)
			fill(a, salted)
			for k := range x {
				x[k] = NewVec(n)
				fill(x[k], salted)
			}
			got := NewVec(n)
			fill(got, salted)
			want := got.Clone()
			for k := range x {
				want.Axpy(a[k], x[k])
			}
			got.Axpy4(a[0], a[1], a[2], a[3], x[0], x[1], x[2], x[3])
			if j := sameBits(got, want); j >= 0 {
				t.Fatalf("n=%d salted=%v: v[%d] = %v (%#x), four Axpys give %v (%#x)",
					n, salted, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}

	v, x := NewVec(3), NewVec(3)
	expectPanics(t, "Axpy4", map[string]func(){
		"x0": func() { v.Axpy4(1, 1, 1, 1, NewVec(2), x, x, x) },
		"x1": func() { v.Axpy4(1, 1, 1, 1, x, NewVec(4), x, x) },
		"x2": func() { v.Axpy4(1, 1, 1, 1, x, x, NewVec(2), x) },
		"x3": func() { v.Axpy4(1, 1, 1, 1, x, x, x, NewVec(4)) },
	})
}

// TestMulVecTIntoMatchesRowAxpy pins the four-rows-per-pass transpose product
// to the loop it replaced — dst zeroed, then dst.Axpy(x[i], Row(i)) row by
// row — bit for bit, at every row count around the block and its remainder.
func TestMulVecTIntoMatchesRowAxpy(t *testing.T) {
	t.Parallel()
	fill := saltedFill(41)
	for rows := 0; rows <= 10; rows++ {
		for _, cols := range []int{1, 3, 32, 36} {
			for _, salted := range []bool{false, true} {
				m := NewMat(rows, cols)
				x, got := NewVec(rows), NewVec(cols)
				fill(m.Data, salted)
				fill(x, salted)
				fill(got, false) // overwritten, never read
				want := NewVec(cols)
				for i := 0; i < rows; i++ {
					want.Axpy(x[i], m.Row(i))
				}
				m.MulVecTInto(got, x)
				if j := sameBits(got, want); j >= 0 {
					t.Fatalf("%dx%d salted=%v: dst[%d] = %v (%#x), row axpys give %v (%#x)",
						rows, cols, salted, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
				}
			}
		}
	}

	m := NewMat(5, 3)
	expectPanics(t, "MulVecTInto", map[string]func(){
		"x":   func() { m.MulVecTInto(NewVec(3), NewVec(4)) },
		"dst": func() { m.MulVecTInto(NewVec(4), NewVec(5)) },
	})
}

// TestAddOuterInPlaceMatchesRankOneUpdates pins the four-pairs-per-pass update
// to one rank-1 update per pair, each row taking Axpy(scale*a[i], b), bit for
// bit: every pair count around the block and its remainder, onto a matrix
// that already holds data.
func TestAddOuterInPlaceMatchesRankOneUpdates(t *testing.T) {
	t.Parallel()
	fill := saltedFill(43)
	for pairs := 0; pairs <= 9; pairs++ {
		for _, shape := range [][2]int{{1, 1}, {5, 3}, {10, 32}, {32, 36}} {
			for _, salted := range []bool{false, true} {
				rows, cols := shape[0], shape[1]
				got := NewMat(rows, cols)
				fill(got.Data, salted)
				want := got.Clone()
				a, b := make([]Vec, pairs), make([]Vec, pairs)
				for k := range a {
					a[k], b[k] = NewVec(rows), NewVec(cols)
					fill(a[k], salted)
					fill(b[k], salted)
					for i := 0; i < rows; i++ {
						want.Row(i).Axpy(0.0625*a[k][i], b[k])
					}
				}
				got.AddOuterInPlace(0.0625, a, b)
				if j := sameBits(got.Data, want.Data); j >= 0 {
					t.Fatalf("%d pairs onto %dx%d salted=%v: word %d = %v (%#x), pair-by-pair gives %v (%#x)", pairs, rows, cols, salted,
						j, got.Data[j], math.Float64bits(got.Data[j]), want.Data[j], math.Float64bits(want.Data[j]))
				}
			}
		}
	}

	m := NewMat(5, 3)
	a, b := NewVec(5), NewVec(3)
	expectPanics(t, "AddOuterInPlace", map[string]func(){
		"pair count": func() { m.AddOuterInPlace(1, []Vec{a, a}, []Vec{b}) },
		"a":          func() { m.AddOuterInPlace(1, []Vec{a, a, a, a, NewVec(4)}, []Vec{b, b, b, b, b}) },
		"b":          func() { m.AddOuterInPlace(1, []Vec{a, a, a, a}, []Vec{b, b, NewVec(4), b}) },
	})
}

func TestMulVecTIsTranspose(t *testing.T) {
	t.Parallel()
	check := func(seed uint64) bool {
		r := rng.New(seed)
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := NewMat(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		x := NewVec(rows)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		y := NewVec(cols)
		for i := range y {
			y[i] = r.NormFloat64()
		}
		// <m x_cols-domain... check adjoint identity: (m y) . x == y . (mᵀ x)
		my, mtx := NewVec(rows), NewVec(cols)
		m.MulVecInto(my, y)
		m.MulVecTInto(mtx, x)
		lhs := my.Dot(x)
		rhs := y.Dot(mtx)
		return almostEqual(lhs, rhs, 1e-9*(1+math.Abs(lhs)))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddOuterInPlace(t *testing.T) {
	t.Parallel()
	m := NewMat(2, 2)
	m.AddOuterInPlace(2, []Vec{{1, 3}}, []Vec{{5, 7}})
	// m = 2 * [1;3] [5 7] = [[10,14],[30,42]]
	want := [][]float64{{10, 14}, {30, 42}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("AddOuter (%d,%d) = %v want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatClone(t *testing.T) {
	t.Parallel()
	m := &Mat{Rows: 1, Cols: 2, Data: Vec{1, 2}}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Mat.Clone shares storage")
	}
}

func TestNewMatPanicsOnNegative(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMat(-1, 2)
}
