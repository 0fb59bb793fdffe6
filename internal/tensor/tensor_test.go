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

// TestMulVecIntoMatchesRowDot pins the row-blocked kernel to the loop it
// replaced, dst[i] = Row(i).Dot(x), bit for bit: shapes on both sides of the
// four-row block and its remainder, data salted with signed zeros,
// infinities, NaN and subnormals.
func TestMulVecIntoMatchesRowDot(t *testing.T) {
	t.Parallel()
	salt := []float64{
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
	}
	r := rng.New(31)
	fill := func(v Vec, salted bool) {
		for i := range v {
			v[i] = r.NormFloat64()
			if salted && r.Intn(6) == 0 {
				v[i] = salt[r.Intn(len(salt))]
			}
		}
	}
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
	for name, call := range map[string]func(){
		"x":   func() { m.MulVecInto(NewVec(5), NewVec(4)) },
		"dst": func() { m.MulVecInto(NewVec(4), NewVec(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MulVecInto accepted a %s of the wrong length", name)
				}
			}()
			call()
		}()
	}
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
	m.AddOuterInPlace(2, Vec{1, 3}, Vec{5, 7})
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
