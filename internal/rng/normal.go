package rng

import (
	"math"
	"math/bits"
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
// and the transform kernel on every GOARCH compute exactly this.
func polar(u, s float64) float64 {
	return u * math.Sqrt(-2*logPolar(s)/s)
}

// logPolar returns ln s for the s of an accepted polar pair. It is GOROOT's
// log_amd64.s algorithm op for op, so on amd64 it equals math.Log bit for
// bit; written in Go with every product rounded before it feeds an add, it
// computes the same bits on every GOARCH. It skips math.Log's special cases
// and its frexp of subnormals: s is a sum of squares of multiples of 2⁻⁵², so
// it lies in [2⁻¹⁰⁴, 1) and is a normal number.
//
// The method and the constants are FreeBSD's msun e_log.c, by way of Go's
// math/log.go and log_amd64.s (Copyright 2009–2010 The Go Authors,
// BSD-style license), and came with this notice:
//
//	====================================================
//	Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
//	Developed at SunPro, a Sun Microsystems, Inc. business.
//	Permission to use, copy, modify, and distribute this
//	software is freely granted, provided that this notice
//	is preserved.
//	====================================================
func logPolar(s float64) float64 {
	const (
		hSqrt2 = 7.07106781186547524401e-01 // √2/2
		ln2Hi  = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
		ln2Lo  = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
		l1     = 6.666666666666735130e-01   // 0x3FE5555555555593
		l2     = 3.999999999940941908e-01   // 0x3FD999999997FA04
		l3     = 2.857142874366239149e-01   // 0x3FD2492494229359
		l4     = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
		l5     = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
		l6     = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
		l7     = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
	)
	// s = f1·2^k with f1 in [1/2, 1), then folded into [√2/2, √2).
	b := math.Float64bits(s)
	f1 := math.Float64frombits(b&(1<<52-1) | 0x3FE0000000000000)
	k := float64(int64(b>>52) - 0x3FE)
	if f1 < hSqrt2 {
		k--
		f1 *= 2
	}
	f := f1 - 1
	t := f / (2 + f)
	t2 := float64(t * t)
	t4 := float64(t2 * t2)
	r := float64(t2*(l1+float64(t4*(l3+float64(t4*(l5+float64(t4*l7))))))) +
		float64(t4*(l2+float64(t4*(l4+float64(t4*l6)))))
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(t*(hfsq+r)) + float64(k*ln2Lo))) - f)
}
