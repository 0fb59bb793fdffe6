// Package tensor implements the small dense linear-algebra kernel the FLIPS
// simulator is built on: float64 vectors and row-major matrices with the
// handful of BLAS-1/2-style operations that logistic-regression and MLP
// training require. The rule is exact determinism across runs and platforms:
// no SIMD, no math.FMA, no parallelism. Blocking — several rows or several
// samples per pass over a vector — is allowed when every output element keeps
// the chain of rounded multiplies and adds it had unblocked (DESIGN.md,
// "Float-order preservation").
package tensor

import (
	"fmt"
	"math"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// AddInPlace adds other into v element-wise. Lengths must match.
func (v Vec) AddInPlace(other Vec) {
	assertSameLen(len(v), len(other))
	for i := range v {
		v[i] += other[i]
	}
}

// SubInPlace subtracts other from v element-wise.
func (v Vec) SubInPlace(other Vec) {
	assertSameLen(len(v), len(other))
	for i := range v {
		v[i] -= other[i]
	}
}

// Sub returns v - other as a new vector.
func (v Vec) Sub(other Vec) Vec {
	out := v.Clone()
	out.SubInPlace(other)
	return out
}

// Add returns v + other as a new vector.
func (v Vec) Add(other Vec) Vec {
	out := v.Clone()
	out.AddInPlace(other)
	return out
}

// ScaleInPlace multiplies every element of v by s.
func (v Vec) ScaleInPlace(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Scale returns s*v as a new vector.
func (v Vec) Scale(s float64) Vec {
	out := v.Clone()
	out.ScaleInPlace(s)
	return out
}

// Axpy performs v += a*x (the BLAS axpy kernel).
func (v Vec) Axpy(a float64, x Vec) {
	assertSameLen(len(v), len(x))
	for i := range v {
		v[i] += a * x[i]
	}
}

// Axpy4 performs v += a0*x0, v += a1*x1, v += a2*x2, v += a3*x3 in one pass:
// v[j] = (((v[j] + a0·x0[j]) + a1·x1[j]) + a2·x2[j]) + a3·x3[j], one load and
// one store of v[j] per four multiply-adds. Each element sees the same four
// rounded products added in the same order as four Axpy calls, so the result
// is bit-equal to them. v must not overlap any x.
func (v Vec) Axpy4(a0, a1, a2, a3 float64, x0, x1, x2, x3 Vec) {
	n := len(v)
	assertSameLen(n, len(x0))
	assertSameLen(n, len(x1))
	assertSameLen(n, len(x2))
	assertSameLen(n, len(x3))
	for j := range v {
		v[j] = (((v[j] + a0*x0[j]) + a1*x1[j]) + a2*x2[j]) + a3*x3[j]
	}
}

// Dot returns the inner product of v and other.
func (v Vec) Dot(other Vec) float64 {
	assertSameLen(len(v), len(other))
	var s float64
	for i := range v {
		s += v[i] * other[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// SqDist returns the squared Euclidean distance between v and other.
func (v Vec) SqDist(other Vec) float64 {
	assertSameLen(len(v), len(other))
	var s float64
	for i := range v {
		d := v[i] - other[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between v and other.
func (v Vec) Dist(other Vec) float64 { return math.Sqrt(v.SqDist(other)) }

// CosineSim returns the cosine similarity of v and other; zero vectors have
// similarity 0 by convention.
func (v Vec) CosineSim(other Vec) float64 {
	nv, no := v.Norm2(), other.Norm2()
	if nv == 0 || no == 0 {
		return 0
	}
	return v.Dot(other) / (nv * no)
}

// Sum returns the sum of all elements.
func (v Vec) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Normalize scales v so its elements sum to 1 and returns it; a zero vector
// is returned unchanged.
func (v Vec) Normalize() Vec {
	s := v.Sum()
	if s == 0 {
		return v
	}
	v.ScaleInPlace(1 / s)
	return v
}

// ArgMax returns the index of the largest element (first winner on ties).
// It returns -1 for an empty vector.
func (v Vec) ArgMax() int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}

// SoftmaxInPlace replaces v with softmax(v), using the max-subtraction trick
// for numerical stability.
func (v Vec) SoftmaxInPlace() {
	if len(v) == 0 {
		return
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	var sum float64
	for i := range v {
		v[i] = math.Exp(v[i] - m)
		sum += v[i]
	}
	for i := range v {
		v[i] /= sum
	}
}

func assertSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d != %d", a, b))
	}
}
