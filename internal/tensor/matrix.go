package tensor

import (
	"fmt"
	"math"
)

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

// MatFromRows copies equal-length rows into a new matrix, row i from rows[i].
// A ragged row panics; no rows gives a 0x0 matrix.
func MatFromRows(rows []Vec) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		assertSameLen(len(r), m.Cols)
		copy(m.Row(i), r)
	}
	return m
}

// Row returns a mutable view of row i.
func (m *Mat) Row(i int) Vec {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

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
			s0 += float64(r0[j] * xj)
			s1 += float64(r1[j] * xj)
			s2 += float64(r2[j] * xj)
			s3 += float64(r3[j] * xj)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		dst[i] = m.Row(i).Dot(x)
	}
}

// MulVec4Into computes dk = m * xk for k = 0, 1, 2, 3 — four column vectors
// of length Cols into four caller-provided vectors of length Rows — in one
// pass over m, allocating nothing. No dk may overlap an x or m. Every dk[i]
// is bit-equal to Row(i).Dot(xk): the samples ride in separate lanes, so each
// (row, sample) pair keeps its own chain of products in column order from
// +0, and the four samples' chains are independent of each other and share
// every load of m.
func (m *Mat) MulVec4Into(d0, d1, d2, d3, x0, x1, x2, x3 Vec) {
	assertSameLen(len(x0), m.Cols)
	assertSameLen(len(x1), m.Cols)
	assertSameLen(len(x2), m.Cols)
	assertSameLen(len(x3), m.Cols)
	assertSameLen(len(d0), m.Rows)
	assertSameLen(len(d1), m.Rows)
	assertSameLen(len(d2), m.Rows)
	assertSameLen(len(d3), m.Rows)
	assertSameLen(len(m.Data), m.Rows*m.Cols)
	mulVec4(d0, d1, d2, d3, m.Data, x0, x1, x2, x3)
}

// ArgMaxAffine4 returns, for k = 0, 1, 2, 3, the index of the largest
// element of m * xk + b — the class whose logit is largest, for a layer's
// weights m (Rows classes × Cols inputs), its bias b (length Rows) and four
// column vectors xk of length Cols — and its margin, that logit less the
// runner-up, in one pass over m, allocating nothing. Every logit is
// Row(i).Dot(xk) + b[i], the value MulVec4Into and a bias added in place
// give; a tie goes to the lower index and a NaN never displaces an earlier
// value (so a NaN logit at index 0 wins). The runner-up is the largest of the
// other logits by the same rule, and -Inf with one row; the margin is their
// difference as computed, so it may be NaN or ±Inf. m needs at least one row.
func (m *Mat) ArgMaxAffine4(b, x0, x1, x2, x3 Vec) (classes [4]int, margins [4]float64) {
	if m.Rows == 0 {
		panic("tensor: ArgMaxAffine4 of a matrix with no rows")
	}
	assertSameLen(len(x0), m.Cols)
	assertSameLen(len(x1), m.Cols)
	assertSameLen(len(x2), m.Cols)
	assertSameLen(len(x3), m.Cols)
	assertSameLen(len(b), m.Rows)
	assertSameLen(len(m.Data), m.Rows*m.Cols)
	inf := math.Inf(-1)
	margins = [4]float64{inf, inf, inf, inf} // the runner-up before any row
	argmaxAffine4(&classes, &margins, m.Data, b, x0, x1, x2, x3)
	return classes, margins
}

// MulVecTInto computes dst = mᵀ * x, for a column vector x of length Rows,
// into the caller-provided dst of length Cols, allocating nothing; dst must
// not overlap x or m. dst[j] adds x[i]·m[i][j] for i = 0, 1, 2, … in row
// order from +0 — the chain of zeroing dst and then applying
// dst.Axpy(x[i], Row(i)) row by row — however many columns a pass over the
// rows carries.
func (m *Mat) MulVecTInto(dst, x Vec) {
	assertSameLen(len(x), m.Rows)
	assertSameLen(len(dst), m.Cols)
	assertSameLen(len(m.Data), m.Rows*m.Cols)
	mulVecT(dst, m.Data, x)
}

// TransposeInto writes mᵀ into dst, which must be Cols x Rows and must not
// overlap m. Rows of m are taken four at a time, so each row of dst is
// written four contiguous words per pass.
func (m *Mat) TransposeInto(dst *Mat) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: transpose of %dx%d into %dx%d", m.Rows, m.Cols, dst.Rows, dst.Cols))
	}
	assertSameLen(len(m.Data), m.Rows*m.Cols)
	assertSameLen(len(dst.Data), dst.Rows*dst.Cols)
	rows := m.Rows
	i := 0
	for ; i+4 <= rows; i += 4 {
		r0, r1, r2, r3 := m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
		for j := range r0 {
			d := dst.Data[j*rows+i : j*rows+i+4]
			d[0], d[1], d[2], d[3] = r0[j], r1[j], r2[j], r3[j]
		}
	}
	for ; i < rows; i++ {
		for j, x := range m.Row(i) {
			dst.Data[j*rows+i] = x
		}
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
