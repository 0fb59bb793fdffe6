// Package tensor implements the small dense linear-algebra kernel the FLIPS
// simulator is built on: float64 vectors and row-major matrices with the
// handful of BLAS-1/2-style operations that logistic-regression and MLP
// training require. The rule is exact determinism across runs and platforms:
// every output element is one chain of rounded multiplies and adds, fixed by
// the source. Every product that feeds an add is rounded by an explicit
// float64 conversion, so no compiler fuses the two; there is no math.FMA and
// no parallelism. Blocking — several rows or several samples per pass over a
// vector — is allowed when every output element keeps the chain it had
// unblocked. SIMD is allowed only lane-wise, with each lane one output
// element's scalar chain and no horizontal reduction: Axpy, Axpy4,
// MulVecTInto and MulVec4Into are SSE2 assembly on amd64 (kernels_amd64.s)
// and the loops in kernels_other.go elsewhere (DESIGN.md, "Float-order
// preservation").
package tensor

import (
	"fmt"
	"math"

	"flips/internal/fmath"
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

// ScaleInPlace multiplies every element of v by s.
func (v Vec) ScaleInPlace(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Axpy performs v += a*x (the BLAS axpy kernel). x may be v itself but must
// not otherwise overlap it.
func (v Vec) Axpy(a float64, x Vec) {
	assertSameLen(len(v), len(x))
	axpy(v, a, x)
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
	axpy4(v, a0, a1, a2, a3, x0, x1, x2, x3)
}

// Dot returns the inner product of v and other.
func (v Vec) Dot(other Vec) float64 {
	assertSameLen(len(v), len(other))
	var s float64
	for i := range v {
		s += float64(v[i] * other[i])
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
		s += float64(d * d)
	}
	return s
}

// Dist returns the Euclidean distance between v and other.
func (v Vec) Dist(other Vec) float64 { return math.Sqrt(v.SqDist(other)) }

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

// SoftmaxInPlace replaces v with softmax(v), using the max-subtraction trick
// for numerical stability. The exponential is fmath.Exp, whose one fused op
// is an explicit, correctly rounded math.FMA, so the bits are the same on
// every host.
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
		v[i] = fmath.Exp(v[i] - m)
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
