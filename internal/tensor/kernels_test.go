package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"flips/internal/rng"
)

// The scalar loops Axpy, Axpy4, MulVecTInto and MulVec4Into ran before they
// became SSE2 assembly on amd64: the chains the kernels must reproduce word
// for word. The explicit conversions keep a fusing compiler from changing
// them.

func axpyReference(v Vec, a float64, x Vec) {
	for j := range v {
		v[j] += float64(a * x[j])
	}
}

func axpy4Reference(v Vec, a0, a1, a2, a3 float64, x0, x1, x2, x3 Vec) {
	for j := range v {
		v[j] = (((v[j] + float64(a0*x0[j])) + float64(a1*x1[j])) + float64(a2*x2[j])) + float64(a3*x3[j])
	}
}

func mulVecTReference(m *Mat, dst, x Vec) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		axpyReference(dst, x[i], m.Row(i))
	}
}

func mulVec4Reference(m *Mat, d, x [4]Vec) {
	for k := range d {
		for i := range d[k] {
			d[k][i] = m.Row(i).Dot(x[k])
		}
	}
}

// argmaxAffine4Reference scores four samples as evaluation did before
// ArgMaxAffine4, one at a time into the scratch z: the logits through
// MulVecInto, b added in place, then the argmax in index order and the
// margin over the largest other logit a NaN does not displace (-Inf before
// any).
func argmaxAffine4Reference(m *Mat, b, z Vec, x [4]Vec) (classes [4]int, margins [4]float64) {
	for k := range x {
		m.MulVecInto(z, x[k])
		z.AddInPlace(b)
		c := argMax(z)
		second := math.Inf(-1)
		for i, v := range z {
			if i != c && v > second {
				second = v
			}
		}
		classes[k], margins[k] = c, z[c]-second
	}
	return classes, margins
}

// guarded returns a vector of length n cut at offset 1 from a backing with one
// guard word on each side, so the unaligned loads run and a write past either
// end shows in the guards.
func guarded(n int) (v, backing Vec) {
	backing = NewVec(n + 2)
	backing[0], backing[n+1] = 0x1p100, -0x1p100
	return backing[1 : n+1 : n+1], backing
}

func checkGuards(t *testing.T, what string, backing Vec) {
	t.Helper()
	if n := len(backing) - 1; backing[0] != 0x1p100 || backing[n] != -0x1p100 {
		t.Fatalf("%s wrote outside its output: guards %v, %v", what, backing[0], backing[n])
	}
}

// sameKernelBits fails unless got and want agree word for word, two NaNs
// counting as equal (see sameBits).
func sameKernelBits(t *testing.T, what string, got, want Vec) {
	t.Helper()
	if j := sameBits(got, want); j >= 0 {
		t.Fatalf("%s: word %d = %v (%#x), the scalar reference gives %v (%#x)",
			what, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
	}
}

// checkAxpys runs Axpy and Axpy4 on v against the scalar reference.
func checkAxpys(t *testing.T, what string, v Vec, a [4]float64, x [4]Vec) {
	t.Helper()
	n := len(v)
	got, gotBacking := guarded(n)
	copy(got, v)
	want := v.Clone()
	got.Axpy(a[0], x[0])
	axpyReference(want, a[0], x[0])
	sameKernelBits(t, "Axpy "+what, got, want)
	checkGuards(t, "Axpy "+what, gotBacking)

	got.Axpy4(a[0], a[1], a[2], a[3], x[0], x[1], x[2], x[3])
	axpy4Reference(want, a[0], a[1], a[2], a[3], x[0], x[1], x[2], x[3])
	sameKernelBits(t, "Axpy4 "+what, got, want)
	checkGuards(t, "Axpy4 "+what, gotBacking)
}

// checkMulVecT runs MulVecTInto on m and x against the scalar reference, into
// a dst that holds data beforehand.
func checkMulVecT(t *testing.T, what string, m *Mat, x Vec) {
	t.Helper()
	got, gotBacking := guarded(m.Cols)
	for j := range got {
		got[j] = float64(j) - 0.5 // overwritten, never read
	}
	want := NewVec(m.Cols)
	m.MulVecTInto(got, x)
	mulVecTReference(m, want, x)
	sameKernelBits(t, "MulVecTInto "+what, got, want)
	checkGuards(t, "MulVecTInto "+what, gotBacking)
}

// checkMulVec4 runs MulVec4Into on m and x against the scalar reference,
// into outputs that hold data beforehand.
func checkMulVec4(t *testing.T, what string, m *Mat, x [4]Vec) {
	t.Helper()
	var got, gotBacking, want [4]Vec
	for k := range got {
		got[k], gotBacking[k] = guarded(m.Rows)
		for i := range got[k] {
			got[k][i] = float64(i) - 0.5 // overwritten, never read
		}
		want[k] = NewVec(m.Rows)
	}
	m.MulVec4Into(got[0], got[1], got[2], got[3], x[0], x[1], x[2], x[3])
	mulVec4Reference(m, want, x)
	for k := range got {
		sameKernelBits(t, fmt.Sprintf("MulVec4Into d%d %s", k, what), got[k], want[k])
		checkGuards(t, fmt.Sprintf("MulVec4Into d%d %s", k, what), gotBacking[k])
	}
}

// checkArgMaxAffine4 runs ArgMaxAffine4 on m, b and x against the
// per-sample reference, class for class and margin for margin (two NaNs
// equal).
func checkArgMaxAffine4(t *testing.T, what string, m *Mat, b Vec, x [4]Vec) {
	t.Helper()
	got, gotMargins := m.ArgMaxAffine4(b, x[0], x[1], x[2], x[3])
	want, wantMargins := argmaxAffine4Reference(m, b, NewVec(m.Rows), x)
	if got != want || sameBits(gotMargins[:], wantMargins[:]) >= 0 {
		t.Fatalf("ArgMaxAffine4 %s: classes %v margins %v, the per-sample reference %v %v", what, got, gotMargins, want, wantMargins)
	}
}

// TestKernelsMatchScalarReference pins Axpy, Axpy4, MulVecTInto and
// MulVec4Into to the scalar loops word for word, and ArgMaxAffine4 to the
// per-sample scorer class for class: every length through four 16-column
// blocks and their pair and single tails, every row count through two
// five-row passes and each leftover count, inputs at an unaligned offset,
// data salted with signed zeros, infinities, NaN and subnormals.
func TestKernelsMatchScalarReference(t *testing.T) {
	t.Parallel()
	fill := saltedFill(47)
	for n := 0; n <= 67; n++ {
		for _, salted := range []bool{false, true} {
			var a [4]float64
			fill(a[:], salted)
			var x [4]Vec
			for k := range x {
				x[k], _ = guarded(n)
				fill(x[k], salted)
			}
			v := NewVec(n)
			fill(v, salted)
			checkAxpys(t, fmt.Sprintf("n=%d salted=%v", n, salted), v, a, x)
		}
	}
	for _, cols := range []int{1, 2, 15, 16, 17, 31, 32, 33} {
		for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 36} {
			for _, salted := range []bool{false, true} {
				data, _ := guarded(rows * cols)
				x, _ := guarded(rows)
				fill(data, salted)
				fill(x, salted)
				checkMulVecT(t, fmt.Sprintf("%dx%d salted=%v", rows, cols, salted), &Mat{Rows: rows, Cols: cols, Data: data}, x)
			}
		}
	}
	for _, cols := range []int{0, 1, 2, 3, 5, 31, 32, 33, 36} {
		for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 31, 32, 33} {
			for _, salted := range []bool{false, true} {
				data, _ := guarded(rows * cols)
				fill(data, salted)
				var x [4]Vec
				for k := range x {
					x[k], _ = guarded(cols)
					fill(x[k], salted)
				}
				checkMulVec4(t, fmt.Sprintf("%dx%d salted=%v", rows, cols, salted), &Mat{Rows: rows, Cols: cols, Data: data}, x)
				if rows > 0 {
					b, _ := guarded(rows)
					fill(b, salted)
					checkArgMaxAffine4(t, fmt.Sprintf("%dx%d salted=%v", rows, cols, salted), &Mat{Rows: rows, Cols: cols, Data: data}, b, x)
				}
			}
		}
	}

	v := NewVec(3)
	m := NewMat(5, 3)
	d := NewVec(5)
	expectPanics(t, "a kernel", map[string]func(){
		"Axpy x":             func() { v.Axpy(1, NewVec(4)) },
		"MulVecTInto m.Data": func() { (&Mat{Rows: 5, Cols: 3, Data: m.Data[:14]}).MulVecTInto(v, NewVec(5)) },
		"MulVec4Into x":      func() { m.MulVec4Into(d, d, d, d, v, v, v, NewVec(2)) },
		"MulVec4Into d":      func() { m.MulVec4Into(d, NewVec(4), d, d, v, v, v, v) },
		"MulVec4Into m.Data": func() { (&Mat{Rows: 5, Cols: 3, Data: m.Data[:14]}).MulVec4Into(d, d, d, d, v, v, v, v) },
		"ArgMaxAffine4 x":    func() { m.ArgMaxAffine4(d, v, v, NewVec(4), v) },
		"ArgMaxAffine4 b":    func() { m.ArgMaxAffine4(NewVec(4), v, v, v, v) },
		"ArgMaxAffine4 rows": func() { NewMat(0, 3).ArgMaxAffine4(Vec{}, v, v, v, v) },
	})
}

// TestArgMaxAffine4Ties feeds ArgMaxAffine4 logits built to collide: one
// input column with the four samples' features 1, −1, +0 and 0.5, and
// weights and biases drawn from values whose sums tie exactly or go NaN —
// signed zeros, infinities, NaN, subnormals, MaxFloat64 and a few small
// integers. The reference decides every tie, NaN and all-NaN row the same
// way or the test fails.
func TestArgMaxAffine4Ties(t *testing.T) {
	t.Parallel()
	palette := []float64{
		0, math.Copysign(0, -1), 1, -1, 2, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	}
	x := [4]Vec{{1}, {-1}, {0}, {0.5}}
	r := rng.New(71)
	for trial := 0; trial < 20000; trial++ {
		rows := 1 + r.Intn(13)
		m, b := NewMat(rows, 1), NewVec(rows)
		for i := 0; i < rows; i++ {
			m.Data[i] = palette[r.Intn(len(palette))]
			if trial%2 == 0 {
				b[i] = palette[r.Intn(len(palette))]
			}
		}
		checkArgMaxAffine4(t, fmt.Sprintf("trial %d: w %v b %v", trial, m.Data, b), m, b, x)
	}
}

// FuzzTensorKernels drives the same comparison from arbitrary bytes: the
// first two pick the vector length and the matrix shape, the rest are the
// coefficients' and the data's bit patterns while they last. MulVecTInto,
// MulVec4Into and ArgMaxAffine4 share the matrix.
func FuzzTensorKernels(f *testing.F) {
	f.Add([]byte{36, 32})
	f.Add([]byte{5, 0x23, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{17, 0x91, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var head [2]int
		for i := range head {
			if i < len(data) {
				head[i] = int(data[i])
			}
		}
		data = data[min(len(head), len(data)):]
		n, rows, cols := head[0]%68, head[1]&0xf, 1+3*(head[1]>>4)
		r := rng.New(61)
		word := func() float64 {
			if len(data) >= 8 {
				w := binary.LittleEndian.Uint64(data)
				data = data[8:]
				return math.Float64frombits(w)
			}
			return r.NormFloat64()
		}
		fillWords := func(v Vec) {
			for i := range v {
				v[i] = word()
			}
		}
		var a [4]float64
		fillWords(a[:])
		var x [4]Vec
		for k := range x {
			x[k], _ = guarded(n)
			fillWords(x[k])
		}
		v := NewVec(n)
		fillWords(v)
		checkAxpys(t, fmt.Sprintf("n=%d", n), v, a, x)

		m, xm := NewMat(rows, cols), NewVec(rows)
		fillWords(xm)
		fillWords(m.Data)
		checkMulVecT(t, fmt.Sprintf("%dx%d", rows, cols), m, xm)

		var x4 [4]Vec
		for k := range x4 {
			x4[k], _ = guarded(cols)
			fillWords(x4[k])
		}
		checkMulVec4(t, fmt.Sprintf("%dx%d", rows, cols), m, x4)
		if rows > 0 {
			b := NewVec(rows)
			fillWords(b)
			checkArgMaxAffine4(t, fmt.Sprintf("%dx%d", rows, cols), m, b, x4)
		}
	})
}

func TestTransposeInto(t *testing.T) {
	t.Parallel()
	fill := saltedFill(53)
	for _, shape := range [][2]int{{0, 3}, {3, 0}, {1, 1}, {1, 7}, {5, 3}, {6, 2}, {7, 9}, {32, 36}, {33, 5}} {
		m := NewMat(shape[0], shape[1])
		fill(m.Data, true)
		dst := NewMat(shape[1], shape[0])
		fill(dst.Data, false) // overwritten, never read
		m.TransposeInto(dst)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if math.Float64bits(dst.At(j, i)) != math.Float64bits(m.At(i, j)) {
					t.Fatalf("%dx%d: dst(%d, %d) = %v, m(%d, %d) = %v", m.Rows, m.Cols, j, i, dst.At(j, i), i, j, m.At(i, j))
				}
			}
		}
	}

	m := NewMat(5, 3)
	expectPanics(t, "TransposeInto", map[string]func(){
		"dst shape": func() { m.TransposeInto(NewMat(5, 3)) },
		"dst rows":  func() { m.TransposeInto(NewMat(2, 5)) },
		"dst cols":  func() { m.TransposeInto(NewMat(3, 4)) },
		"dst data":  func() { m.TransposeInto(&Mat{Rows: 3, Cols: 5, Data: NewVec(14)}) },
	})
}

// The kernels at the shapes the benchmark's jobs run them at — a FEMNIST MLP
// gradient row (36 words), the hidden layer's forward product over W1
// transposed (36x32), the backward dh = W2ᵀz (10x32), and a full block's
// forward product, and its scoring, over ECG's logistic regression (5x32) and
// the MLP's W2 (10x32) — each beside its scalar reference in the same run. CI
// gates each ratio at 0.75: with the Go loops in place of the assembly,
// Axpy4 reads above 1.

var (
	benchSink Vec
	classSink int
)

func benchVecs(n, count int) []Vec {
	r := rng.New(67)
	vs := make([]Vec, count)
	for k := range vs {
		vs[k] = NewVec(n)
		for i := range vs[k] {
			vs[k][i] = r.NormFloat64()
		}
	}
	return vs
}

func benchmarkAxpy4(b *testing.B, kernel func(v Vec, a0, a1, a2, a3 float64, x0, x1, x2, x3 Vec)) {
	b.Run("36", func(b *testing.B) {
		vs := benchVecs(36, 5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kernel(vs[0], 1e-3, -1e-3, 2e-3, -2e-3, vs[1], vs[2], vs[3], vs[4])
		}
		benchSink = vs[0]
	})
}

func BenchmarkAxpy4(b *testing.B) { benchmarkAxpy4(b, Vec.Axpy4) }

func BenchmarkAxpy4Reference(b *testing.B) { benchmarkAxpy4(b, axpy4Reference) }

func benchmarkMulVecT(b *testing.B, kernel func(m *Mat, dst, x Vec)) {
	for _, shape := range [][2]int{{36, 32}, {10, 32}} {
		rows, cols := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", rows, cols), func(b *testing.B) {
			vs := benchVecs(rows*cols, 1)
			m, x, dst := &Mat{Rows: rows, Cols: cols, Data: vs[0]}, benchVecs(rows, 1)[0], NewVec(cols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(m, dst, x)
			}
			benchSink = dst
		})
	}
}

func BenchmarkMulVecTInto(b *testing.B) { benchmarkMulVecT(b, (*Mat).MulVecTInto) }

func BenchmarkMulVecTIntoReference(b *testing.B) { benchmarkMulVecT(b, mulVecTReference) }

func benchmarkMulVec4(b *testing.B, kernel func(m *Mat, d, x [4]Vec)) {
	for _, shape := range [][2]int{{5, 32}, {10, 32}} {
		rows, cols := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", rows, cols), func(b *testing.B) {
			m := &Mat{Rows: rows, Cols: cols, Data: benchVecs(rows*cols, 1)[0]}
			var d, x [4]Vec
			copy(d[:], benchVecs(rows, 4))
			copy(x[:], benchVecs(cols, 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(m, d, x)
			}
			benchSink = d[0]
		})
	}
}

func BenchmarkMulVec4Into(b *testing.B) {
	benchmarkMulVec4(b, func(m *Mat, d, x [4]Vec) { m.MulVec4Into(d[0], d[1], d[2], d[3], x[0], x[1], x[2], x[3]) })
}

// BenchmarkMulVec4IntoReference is the four MulVecInto calls a full block
// made before MulVec4Into.
func BenchmarkMulVec4IntoReference(b *testing.B) {
	benchmarkMulVec4(b, func(m *Mat, d, x [4]Vec) {
		for k := range d {
			m.MulVecInto(d[k], x[k])
		}
	})
}

func benchmarkArgMaxAffine4(b *testing.B, score func(m *Mat, bias, z Vec, x [4]Vec) ([4]int, [4]float64)) {
	for _, shape := range [][2]int{{5, 32}, {10, 32}} {
		rows, cols := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", rows, cols), func(b *testing.B) {
			m := &Mat{Rows: rows, Cols: cols, Data: benchVecs(rows*cols, 1)[0]}
			bias, z := benchVecs(rows, 1)[0], NewVec(rows)
			var x [4]Vec
			copy(x[:], benchVecs(cols, 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				classes, _ := score(m, bias, z, x)
				classSink += classes[i&3]
			}
		})
	}
}

func BenchmarkArgMaxAffine4(b *testing.B) {
	benchmarkArgMaxAffine4(b, func(m *Mat, bias, _ Vec, x [4]Vec) ([4]int, [4]float64) {
		return m.ArgMaxAffine4(bias, x[0], x[1], x[2], x[3])
	})
}

// BenchmarkArgMaxAffine4Reference is the per-sample scoring a block took
// before ArgMaxAffine4: four MulVecInto calls, each with its bias add and
// argmax.
func BenchmarkArgMaxAffine4Reference(b *testing.B) { benchmarkArgMaxAffine4(b, argmaxAffine4Reference) }
