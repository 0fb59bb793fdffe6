package tensor

import "fmt"

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       Vec // len == Rows*Cols
}

// NewMat returns a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: NewVec(rows * cols)}
}

// Row returns a mutable view of row i.
func (m *Mat) Row(i int) Vec {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// MulVecInto computes dst = m * x, for a column vector x of length Cols,
// into the caller-provided dst of length Rows, allocating nothing. Each dst
// element is overwritten with a row dot product; dst must not overlap x.
//
// Rows are taken four at a time, one accumulator per row: each accumulator
// adds its own row's products in column order, so dst[i] is bit-equal to
// Row(i).Dot(x), while the four add chains are independent of each other and
// share every load of x.
func (m *Mat) MulVecInto(dst, x Vec) {
	assertSameLen(len(x), m.Cols)
	assertSameLen(len(dst), m.Rows)
	cols := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[i*cols : (i+1)*cols]
		r1 := m.Data[(i+1)*cols : (i+2)*cols]
		r2 := m.Data[(i+2)*cols : (i+3)*cols]
		r3 := m.Data[(i+3)*cols : (i+4)*cols]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		dst[i] = m.Row(i).Dot(x)
	}
}

// MulVecTInto computes dst = mᵀ * x, for a column vector x of length Rows,
// into the caller-provided dst of length Cols, allocating nothing. dst is
// zeroed first, then accumulated by row axpy, four rows per pass over dst:
// dst[j] adds x[i]·m[i][j] for i = 0, 1, 2, … in row order from +0, whatever
// the blocking.
func (m *Mat) MulVecTInto(dst, x Vec) {
	assertSameLen(len(x), m.Rows)
	assertSameLen(len(dst), m.Cols)
	for i := range dst {
		dst[i] = 0
	}
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		dst.Axpy4(x[i], x[i+1], x[i+2], x[i+3], m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3))
	}
	for ; i < m.Rows; i++ {
		dst.Axpy(x[i], m.Row(i))
	}
}

// AddOuterInPlace performs m += scale * a[k] ⊗ b[k] (a rank-1 update) for
// k = 0, 1, 2, … in that order, where every a[k] has length Rows and every
// b[k] length Cols. Pairs are taken four at a time, so each row of m is
// loaded and stored once per four updates; a remainder of one to three pairs
// is applied pair by pair. Either way element (i, j) adds the rounded
// products (scale·a[k][i])·b[k][j] in k order.
func (m *Mat) AddOuterInPlace(scale float64, a, b []Vec) {
	assertSameLen(len(a), len(b))
	for k := range a {
		assertSameLen(len(a[k]), m.Rows)
		assertSameLen(len(b[k]), m.Cols)
	}
	k := 0
	for ; k+4 <= len(a); k += 4 {
		a0, a1, a2, a3 := a[k], a[k+1], a[k+2], a[k+3]
		b0, b1, b2, b3 := b[k], b[k+1], b[k+2], b[k+3]
		for i := 0; i < m.Rows; i++ {
			m.Row(i).Axpy4(scale*a0[i], scale*a1[i], scale*a2[i], scale*a3[i], b0, b1, b2, b3)
		}
	}
	for ; k < len(a); k++ {
		ak, bk := a[k], b[k]
		for i := 0; i < m.Rows; i++ {
			m.Row(i).Axpy(scale*ak[i], bk)
		}
	}
}
