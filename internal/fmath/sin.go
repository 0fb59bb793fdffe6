package fmath

import (
	"math"
	"math/bits"
)

// Sin returns the sine of x radians: sin.go, the code amd64's math.Sin runs,
// with trig_reduce.go's Payne-Hanek reduction from 2²⁹ up. Sin(±0) = ±0,
// Sin(±Inf) = NaN, Sin(NaN) = NaN.
func Sin(x float64) float64 {
	const (
		pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, π/4 split into three parts
		pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	switch {
	case x == 0 || math.IsNaN(x):
		return x
	case math.IsInf(x, 0):
		return math.NaN()
	}

	// Make the argument positive but save the sign.
	sign := false
	if x < 0 {
		x = -x
		sign = true
	}

	var j uint64
	var y, z float64
	if x >= reduceThreshold {
		j, z = trigReduce(x)
	} else {
		// The integer part of x/(π/4); the rounding keeps riscv64 and ppc64le
		// from fusing the product into uint64 conversion's 2⁶³ subtraction.
		j = uint64(float64(x * (4 / math.Pi)))
		y = float64(j)
		// Map zeros to the origin.
		if j&1 == 1 {
			j++
			y++
		}
		j &= 7 // octant modulo 2π
		// Extended-precision modular arithmetic.
		z = ((x - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C)
	}
	// Reflect in the x axis.
	if j > 3 {
		sign = !sign
		j -= 4
	}
	zz := float64(z * z)
	if j == 1 || j == 2 {
		q := float64(cosCoef[0]*zz) + cosCoef[1]
		for _, c := range cosCoef[2:] {
			q = float64(q*zz) + c
		}
		y = (1.0 - float64(0.5*zz)) + float64(float64(zz*zz)*q)
	} else {
		q := float64(sinCoef[0]*zz) + sinCoef[1]
		for _, c := range sinCoef[2:] {
			q = float64(q*zz) + c
		}
		y = z + float64(float64(z*zz)*q)
	}
	if sign {
		y = -y
	}
	return y
}

var sinCoef = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

var cosCoef = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}

// reduceThreshold is the largest x the three-part π/4 reduction handles
// exactly: y·pi4A must be exact, and pi4A has 30 trailing zero bits.
const reduceThreshold = 1 << 29

// trigReduce is Payne-Hanek reduction by π/4 for x ≥ π/4 (K. C. Ng et al.,
// "Argument reduction for huge arguments: good to the last bit", 1992): it
// returns the integer part mod 8 (j) and the fractional part (z) of x/(π/4),
// multiplying the mantissa by 4/π in 64-bit integer arithmetic.
func trigReduce(x float64) (j uint64, z float64) {
	const (
		pi4   = math.Pi / 4
		shift = 52
		mask  = 0x7FF
		bias  = 1023
	)
	if x < pi4 {
		return 0, x
	}
	// x = ix · 2^exp.
	ix := math.Float64bits(x)
	exp := int(ix>>shift&mask) - bias - shift
	ix &^= mask << shift
	ix |= 1 << shift
	// The three digits of 4/π, (z0, z1, z2), whose product with ix has its
	// leading digit at exponent −61; exp ≥ −53 since x ≥ π/4.
	digit, bitshift := uint(exp+61)/64, uint(exp+61)%64
	z0 := (mPi4[digit] << bitshift) | (mPi4[digit+1] >> (64 - bitshift))
	z1 := (mPi4[digit+1] << bitshift) | (mPi4[digit+2] >> (64 - bitshift))
	z2 := (mPi4[digit+2] << bitshift) | (mPi4[digit+3] >> (64 - bitshift))
	// The upper two digits (hi, lo) of the product.
	z2hi, _ := bits.Mul64(z2, ix)
	z1hi, z1lo := bits.Mul64(z1, ix)
	z0lo := z0 * ix
	lo, c := bits.Add64(z1lo, z2hi, 0)
	hi, _ := bits.Add64(z0lo, z1hi, c)
	// The top 3 bits are j; the rest is the fraction.
	j = hi >> 61
	hi = hi<<3 | lo>>61
	lz := uint(bits.LeadingZeros64(hi))
	e := uint64(bias - (lz + 1))
	// Clear the implicit mantissa bit, shift into place, add the exponent.
	hi = (hi << (lz + 1)) | (lo >> (64 - (lz + 1)))
	hi >>= 64 - shift
	hi |= e << shift
	z = math.Float64frombits(hi)
	// Map zeros to the origin.
	if j&1 == 1 {
		j++
		j &= 7
		z--
	}
	return j, z * pi4
}

// mPi4 is the binary digits of 4/π as a uint64 array:
// 4/π = Σ mPi4[i]·2^(−64·i).
var mPi4 = [...]uint64{
	0x0000000000000001,
	0x45f306dc9c882a53,
	0xf84eafa3ea69bb81,
	0xb6c52b3278872083,
	0xfca2c757bd778ac3,
	0x6e48dc74849ba5c0,
	0x0c925dd413a32439,
	0xfc3bd63962534e7d,
	0xd1046bea5d768909,
	0xd338e04d68befc82,
	0x7323ac7306a673e9,
	0x3908bf177bf25076,
	0x3ff12fffbc0b301f,
	0xde5e2316b414da3e,
	0xda6cfd9e4f96136e,
	0x9e8c7ecd3cbfd45a,
	0xea4f758fd7cbe2f6,
	0x7a0e73ef14a525d4,
	0xd7f6bf623f1aba10,
	0xac06608df8f6d757,
}
