package rng

import (
	"math"
	"math/bits"

	"flips/internal/fmath"
)

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return polar(u, s)
		}
	}
}

// normalChunk is the most normals one polar scan draws before the transform
// runs: the scan's s values live on the stack.
const normalChunk = 64

// Normals fills dst with the values len(dst) successive NormFloat64 calls
// would return, and leaves the stream where they would (DESIGN.md, "Normal
// draws"). It draws in chunks: a scan keeps the generator state in locals and
// writes every candidate pair, then polarTransform turns the accepted (u, s)
// pairs into normals with the operations NormFloat64 uses.
func (r *Source) Normals(dst []float64) {
	var s [normalChunk]float64
	for len(dst) > 0 {
		n := min(len(dst), normalChunk)
		r.polarScan(dst[:n], s[:n])
		polarTransform(dst[:n], s[:n])
		dst = dst[n:]
	}
}

// polarScan draws candidate pairs until len(u) are accepted, writing the
// accepted pairs' u and s = u² + v² in order. Each candidate is written
// unconditionally at the next free slot, and the slot advances only when
// 0 < s < 1, without a branch on the draw: a rejected candidate is
// overwritten by the next one. The xoshiro256** steps and the uniform
// conversions are NormFloat64's, so the pairs and the final state are too.
func (r *Source) polarScan(u, s []float64) {
	s = s[:len(u)]
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := 0; i < len(u); {
		x := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)

		y := rotl(s1*5, 7) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)

		// 2·Float64() − 1: the 53-bit integer fits an int64, and both the
		// scaling and the doubling are exact.
		a := 2*float64(float64(int64(x>>11))/(1<<53)) - 1
		b := 2*float64(float64(int64(y>>11))/(1<<53)) - 1
		ss := float64(a*a) + float64(b*b)
		u[i] = a
		s[i] = ss
		i += polarAccept(ss)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// polarAccept is 1 if 0 < s < 1 and 0 otherwise, for s ≥ 0, without a
// branch: the condition is 1 ≤ bits(s) < bits(1), one unsigned compare of
// bits(s) − 1 whose borrow is the result.
func polarAccept(s float64) int {
	_, borrow := bits.Sub64(math.Float64bits(s)-1, 0x3FEFFFFFFFFFFFFF, 0)
	return int(borrow)
}

// polar maps an accepted pair to its normal, u·√(−2·ln s / s). NormFloat64
// and the transform kernel on every GOARCH compute exactly this. The ln is
// fmath.Log's: s is a sum of squares of multiples of 2⁻⁵² in [2⁻¹⁰⁴, 1), a
// normal number, so none of Log's special cases applies.
func polar(u, s float64) float64 {
	return u * math.Sqrt(-2*fmath.Log(s)/s)
}
