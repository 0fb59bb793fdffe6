// Package fmath holds the elementary functions the simulator rounds through:
// Exp, Log, Pow, Sin and Exp2. Each is the algorithm GOROOT's math package
// runs on amd64 with FMA, written in Go so that it computes the same bits on
// every GOARCH and every CPU (DESIGN.md, "Elementary functions"). The only
// fused operations are explicit math.FMA calls, which are correctly rounded
// everywhere: an instruction where the CPU has one, exact software where it
// does not. Every other product that feeds an add is rounded by an explicit
// float64(…), so a fusing compiler computes the same bits as one that does
// not fuse.
//
// The methods, the constants and the code these ports follow come from Go's
// math package (exp_amd64.s, log_amd64.s, pow.go, sin.go, trig_reduce.go and
// exp.go), which carries this notice:
//
//	Copyright 2009 The Go Authors.
//
//	Redistribution and use in source and binary forms, with or without
//	modification, are permitted provided that the following conditions are
//	met:
//
//	   * Redistributions of source code must retain the above copyright
//	notice, this list of conditions and the following disclaimer.
//	   * Redistributions in binary form must reproduce the above
//	copyright notice, this list of conditions and the following disclaimer
//	in the documentation and/or other materials provided with the
//	distribution.
//	   * Neither the name of Google LLC nor the names of its
//	contributors may be used to endorse or promote products derived from
//	this software without specific prior written permission.
//
//	THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
//	"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
//	LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
//	A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
//	OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
//	SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
//	LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
//	DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
//	THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
//	(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
//	OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
//
// Log and Exp2 are FreeBSD's msun e_log.c and e_exp.c, which came with this
// notice:
//
//	====================================================
//	Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
//	Developed at SunPro, a Sun Microsystems, Inc. business.
//	Permission to use, copy, modify, and distribute this
//	software is freely granted, provided that this notice
//	is preserved.
//	====================================================
//
// Exp is Naoki Shibata's sleef method, which its author placed in the public
// domain; Sin is the Cephes Math Library's sin.c (Copyright 1984, 1987, 1989,
// 1992, 2000 by Stephen L. Moshier), "may be used freely but it comes with no
// support or guarantee".
package fmath

import "math"

// Exp returns eˣ. It is the FMA branch of GOROOT's exp_amd64.s, so on an
// amd64 host with FMA it equals math.Exp bit for bit; it keeps that
// assembly's edges: +Inf once x·log₂e rounds to 1024 (from x ≈ 709.437,
// where the true eˣ is still finite up to 709.78), +0 once it rounds below
// −1075, and x itself for NaN and +Inf.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920                  // 1/ln 2
		ln2U     = 0.69314718055966295651160180568695068359375           // upper half of ln 2
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12 // lower half
		overflow = 7.09782712893384e+02
		// Adding and then subtracting 1.5·2⁵² rounds |t| < 2⁵¹ to the nearest
		// integer, ties to even: the assembly's CVTSD2SL.
		roundEven = 0x1.8p52
	)
	b := math.Float64bits(x)
	switch {
	case b&^(1<<63) >= 0x7FF0000000000000: // ±Inf, NaN
		if b == 0xFFF0000000000000 {
			return 0
		}
		return x
	case x > overflow:
		return math.Inf(1)
	}
	t := float64(x * log2e)
	if t < -1076 {
		// The exponent rounds below −1075 (or out of int32, which the
		// assembly turns into −2³¹): the result underflows.
		return 0
	}
	kf := (t + roundEven) - roundEven
	r := math.FMA(-ln2U, kf, x)
	r = math.FMA(-ln2L, kf, r)
	r *= 0.0625
	// Taylor series of e^r − 1 over 1/16 of the reduced argument, then four
	// doublings: (1+y)² − 1 = y(y+2).
	p := math.FMA(2.4801587301587301587e-5, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1.0)
	r = float64(r * p)
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = math.FMA(r, r+2, 1)
	// r · 2ᵏ, in two steps when 2ᵏ is subnormal.
	e := int(kf) + 0x3FF
	switch {
	case e >= 0x7FF:
		return math.Inf(1)
	case e <= 0:
		if e < -52 {
			return 0
		}
		r *= math.Float64frombits(uint64(e+0x3FE) << 52)
		e = 1
	}
	return r * math.Float64frombits(uint64(e)<<52)
}

// Log returns ln x. It is GOROOT's log_amd64.s, which has no FMA branch, so
// on amd64 it equals math.Log bit for bit: −Inf at ±0, NaN below zero (and
// for a NaN whose sign bit is set), x itself for +Inf and any other NaN. Like
// the assembly it reads a subnormal's exponent field as it stands, without
// normalizing the mantissa, so its value there is not ln x.
func Log(x float64) float64 {
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
	b := math.Float64bits(x)
	switch {
	case b&^(1<<63) == 0:
		return math.Inf(-1)
	case int64(b) < 0:
		return math.NaN()
	case b >= 0x7FF0000000000000:
		return x
	}
	// x = f1·2^k with f1 in [1/2, 1), then folded into (√2/2, √2]: the
	// assembly's compare folds f1 = √2/2 too.
	f1 := math.Float64frombits(b&(1<<52-1) | 0x3FE0000000000000)
	k := float64(int64(b>>52) - 0x3FE)
	if f1 <= hSqrt2 {
		k--
		f1 *= 2
	}
	f := f1 - 1
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	r := float64(s2*(l1+float64(s4*(l3+float64(s4*(l5+float64(s4*l7))))))) +
		float64(s4*(l2+float64(s4*(l4+float64(s4*l6)))))
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}

// Exp2 returns 2ˣ: exp.go's exp2 and expmulti, which amd64's math.Exp2 runs.
func Exp2(x float64) float64 {
	const (
		ln2Hi     = 6.93147180369123816490e-01
		ln2Lo     = 1.90821492927058770002e-10
		overflow  = 1.0239999999999999e+03
		underflow = -1.0740e+03
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	case x < underflow:
		return 0
	}
	// Argument reduction: x = r·lg(e) + k with |r| ≤ ln(2)/2, computed as
	// r = hi − lo for extra precision.
	var k int
	switch {
	case x > 0:
		k = int(x + 0.5)
	case x < 0:
		k = int(x - 0.5)
	}
	t := x - float64(k)
	return expmulti(float64(t*ln2Hi), float64(-t*ln2Lo), k)
}

// expmulti returns e^r · 2ᵏ for r = hi − lo, |r| ≤ ln(2)/2.
func expmulti(hi, lo float64, k int) float64 {
	const (
		p1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
		p2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
		p3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
		p4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
		p5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */
	)
	r := hi - lo
	t := float64(r * r)
	c := r - float64(t*(p1+float64(t*(p2+float64(t*(p3+float64(t*(p4+float64(t*p5)))))))))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	return math.Ldexp(y, k)
}
