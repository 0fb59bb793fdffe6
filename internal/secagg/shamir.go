package secagg

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Shamir secret sharing over GF(2^64), the dropout-recovery escrow of the
// Bonawitz secure-aggregation protocol: at wave start every cohort member
// splits its 32-byte mask-seed secret into shares held by the other
// members; when a member drops mid-wave, any ShareThreshold surviving
// holders hand their shares to the coordinator, which reconstructs the
// dropped member's secret and expands exactly the masks the survivors'
// uploads still carry against it.
//
// The field is GF(2^64) with reduction polynomial x^64 + x^4 + x^3 + x + 1
// (the canonical degree-64 pentanomial). GF(2^64) rather than the textbook
// GF(256): share X coordinates are party IDs + 1, and cohorts at fleet
// scale (flash-crowd surges, 100k-party pools) overflow a byte. A 32-byte
// secret is four field elements shared through four parallel polynomials
// that reuse one coefficient schedule per degree.

// Share is one holder's share of a 32-byte secret: the evaluation point X
// (nonzero; party ID + 1) and the four limb polynomial evaluations.
type Share struct {
	X uint64
	Y [4]uint64
}

// gf64ReductionPoly is x^4 + x^3 + x + 1, the low bits of the reduction
// polynomial for GF(2^64).
const gf64ReductionPoly = 0x1B

// gf64Mul multiplies in GF(2^64): carry-less multiplication reduced by
// x^64 + x^4 + x^3 + x + 1. bits.Mul64's carry-less analogue is built from
// shift-and-xor; 64 iterations, constant time, no allocation.
func gf64Mul(a, b uint64) uint64 {
	var p uint64
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a >> 63
		a <<= 1
		if hi != 0 {
			a ^= gf64ReductionPoly
		}
		b >>= 1
	}
	return p
}

// gf64MulLimbs multiplies the four limbs of y by the common factor x in
// GF(2^64), in place: one walk over the bits of x drives all four
// shift-and-xor products in lockstep with a branch-free reduction, so the
// limbs overlap in the pipeline and the loop runs only as long as x has bits
// — a share evaluation point (party ID + 1) is a few bits wide. Each limb
// equals gf64Mul(y[l], x).
func gf64MulLimbs(y *[4]uint64, x uint64) {
	a0, a1, a2, a3 := y[0], y[1], y[2], y[3]
	var p0, p1, p2, p3 uint64
	for ; x != 0; x >>= 1 {
		m := -(x & 1)
		p0 ^= a0 & m
		p1 ^= a1 & m
		p2 ^= a2 & m
		p3 ^= a3 & m
		a0 = a0<<1 ^ -(a0>>63)&gf64ReductionPoly
		a1 = a1<<1 ^ -(a1>>63)&gf64ReductionPoly
		a2 = a2<<1 ^ -(a2>>63)&gf64ReductionPoly
		a3 = a3<<1 ^ -(a3>>63)&gf64ReductionPoly
	}
	y[0], y[1], y[2], y[3] = p0, p1, p2, p3
}

// gf64Inv inverts a nonzero element via Fermat: a^(2^64 − 2). Panics on
// zero, which has no inverse — callers guarantee distinct share X
// coordinates, the only way a zero denominator could arise.
func gf64Inv(a uint64) uint64 {
	if a == 0 {
		panic("secagg: gf64 inverse of zero")
	}
	// Square-and-multiply over the fixed exponent 2^64 − 2 = 0xFFFF...FE.
	r := uint64(1)
	base := a
	for e := uint64(0xFFFFFFFFFFFFFFFE); e != 0; e >>= 1 {
		if e&1 != 0 {
			r = gf64Mul(r, base)
		}
		base = gf64Mul(base, base)
	}
	return r
}

// shamirCoeff derives the degree-k coefficient block (four limbs) of the
// sharing polynomials deterministically from the secret and the wave tag.
// Hashing rather than sampling keeps the whole run a pure function of the
// seed — the simulation's determinism contract — while every (secret, tag)
// pair still gets an independent polynomial.
func shamirCoeff(secret *[32]byte, tag uint64, k int) [4]uint64 {
	var buf [50]byte
	copy(buf[:32], secret[:])
	binary.LittleEndian.PutUint64(buf[32:40], tag)
	binary.LittleEndian.PutUint64(buf[40:48], uint64(k))
	buf[48] = 's'
	buf[49] = 'h'
	d := sha256.Sum256(buf[:])
	var c [4]uint64
	for l := 0; l < 4; l++ {
		c[l] = binary.LittleEndian.Uint64(d[l*8 : l*8+8])
	}
	return c
}

// SplitSecretInto shares secret among the holders named by xs (distinct,
// nonzero evaluation points) with the given reconstruction threshold,
// writing one Share per holder into dst (len(dst) == len(xs)). coeff is
// reusable scratch with capacity ≥ 4·threshold; the grown slice is returned
// so callers can pool it. The polynomial coefficients are derived from
// (secret, tag); the same inputs always produce the same shares.
func SplitSecretInto(dst []Share, secret *[32]byte, xs []uint64, threshold int, tag uint64, coeff []uint64) ([]uint64, error) {
	if len(dst) != len(xs) {
		return coeff, fmt.Errorf("secagg: share buffer len %d != holder count %d", len(dst), len(xs))
	}
	if threshold < 1 || threshold > len(xs) {
		return coeff, fmt.Errorf("secagg: threshold %d out of range [1,%d]", threshold, len(xs))
	}
	// coeff[4k:4k+4] is the degree-k coefficient block; degree 0 is the
	// secret itself.
	ncoeff := 4 * threshold
	if cap(coeff) < ncoeff {
		coeff = make([]uint64, ncoeff)
	}
	coeff = coeff[:ncoeff]
	for l := 0; l < 4; l++ {
		coeff[l] = binary.LittleEndian.Uint64(secret[l*8 : l*8+8])
	}
	for k := 1; k < threshold; k++ {
		c := shamirCoeff(secret, tag, k)
		copy(coeff[k*4:], c[:])
	}
	for i, x := range xs {
		if x == 0 {
			return coeff, fmt.Errorf("secagg: share evaluation point 0 at holder %d", i)
		}
		// Horner from the highest-degree coefficient down to the secret, the
		// four limb polynomials together.
		sh := Share{X: x, Y: [4]uint64(coeff[ncoeff-4:])}
		for k := threshold - 2; k >= 0; k-- {
			gf64MulLimbs(&sh.Y, x)
			for l, c := range coeff[k*4 : k*4+4] {
				sh.Y[l] ^= c
			}
		}
		dst[i] = sh
	}
	return coeff, nil
}

// SplitSecret is the allocating convenience form of SplitSecretInto.
func SplitSecret(secret *[32]byte, xs []uint64, threshold int, tag uint64) ([]Share, error) {
	dst := make([]Share, len(xs))
	if _, err := SplitSecretInto(dst, secret, xs, threshold, tag, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// LagrangeBasis is the Lagrange-at-zero basis over one fixed set of share
// holders. Every secret shared among the same holders reconstructs through
// the same basis, so a coordinator recovering several dropouts from one
// survivor set pays the O(t²) products and the field inversion once (Reset)
// and 4·t multiplications per secret (Combine). The zero value is ready to
// use; storage is reused across Resets.
type LagrangeBasis struct {
	xs, coef, prefix []uint64
}

// Reset computes the basis for the holder evaluation points xs, which must
// be distinct and nonzero. coef[i] = Π_{j≠i} x_j / (x_i ⊕ x_j) (subtraction
// is xor in characteristic 2) is rewritten as P / (x_i · Π_{j≠i}(x_i ⊕ x_j))
// with P = Π x_j, and the t denominators are inverted together by
// Montgomery's trick: one gf64Inv for the whole basis.
func (b *LagrangeBasis) Reset(xs []uint64) error {
	t := len(xs)
	if t < 1 {
		return fmt.Errorf("secagg: threshold %d < 1", t)
	}
	for i, x := range xs {
		if x == 0 {
			return fmt.Errorf("secagg: share %d has evaluation point 0", i)
		}
		for _, xj := range xs[:i] {
			if xj == x {
				return fmt.Errorf("secagg: duplicate share evaluation point %d", x)
			}
		}
	}
	if cap(b.xs) < t {
		b.xs, b.coef, b.prefix = make([]uint64, t), make([]uint64, t), make([]uint64, t)
	}
	b.xs, b.coef, b.prefix = b.xs[:t], b.coef[:t], b.prefix[:t]
	copy(b.xs, xs)
	// coef[i] first holds the denominator x_i·Π_{j≠i}(x_i ⊕ x_j), prefix[i]
	// the running product of denominators 0..i.
	all, run := uint64(1), uint64(1)
	for i, x := range xs {
		all = gf64Mul(all, x)
		den := x
		for j, xj := range xs {
			if j != i {
				den = gf64Mul(den, x^xj)
			}
		}
		b.coef[i] = den
		run = gf64Mul(run, den)
		b.prefix[i] = run
	}
	inv := gf64Inv(run)
	for i := t - 1; i >= 0; i-- {
		den, invDen := b.coef[i], inv
		if i > 0 {
			invDen = gf64Mul(inv, b.prefix[i-1])
		}
		b.coef[i] = gf64Mul(all, invDen)
		inv = gf64Mul(inv, den)
	}
	return nil
}

// Combine reconstructs the 32-byte secret from one share per holder, in the
// holder order given to Reset: the xor over holders of coef[i]·Y_i, each
// product taken over the four limbs at once with coef[i] the common factor.
func (b *LagrangeBasis) Combine(shares []Share) ([32]byte, error) {
	var secret [32]byte
	if len(shares) != len(b.xs) {
		return secret, fmt.Errorf("secagg: %d shares for a %d-holder basis", len(shares), len(b.xs))
	}
	var s [4]uint64
	for i := range shares {
		if shares[i].X != b.xs[i] {
			return secret, fmt.Errorf("secagg: share %d has evaluation point %d, basis holder has %d", i, shares[i].X, b.xs[i])
		}
		y := shares[i].Y
		gf64MulLimbs(&y, b.coef[i])
		for l := 0; l < 4; l++ {
			s[l] ^= y[l]
		}
	}
	for l := 0; l < 4; l++ {
		binary.LittleEndian.PutUint64(secret[l*8:l*8+8], s[l])
	}
	return secret, nil
}

// CombineShares reconstructs the 32-byte secret from at least threshold
// shares by Lagrange interpolation at zero over the first threshold shares.
// Share X coordinates must be distinct and nonzero. It is the one-secret
// convenience form of LagrangeBasis.
func CombineShares(shares []Share, threshold int) ([32]byte, error) {
	if threshold < 1 {
		return [32]byte{}, fmt.Errorf("secagg: threshold %d < 1", threshold)
	}
	if len(shares) < threshold {
		return [32]byte{}, fmt.Errorf("secagg: %d shares below reconstruction threshold %d", len(shares), threshold)
	}
	use := shares[:threshold]
	xs := make([]uint64, threshold)
	for i := range use {
		xs[i] = use[i].X
	}
	var b LagrangeBasis
	if err := b.Reset(xs); err != nil {
		return [32]byte{}, err
	}
	return b.Combine(use)
}
