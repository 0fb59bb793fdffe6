package secagg

import (
	"encoding/binary"
	"math/bits"
	"testing"

	"flips/internal/rng"
)

// gf64MulRef is a reference carry-less multiply cross-checking gf64Mul: it
// builds the 128-bit product bit by bit and reduces x^64 ≡ x^4+x^3+x+1.
func gf64MulRef(a, b uint64) uint64 {
	var lo, hi uint64
	for i := 0; i < 64; i++ {
		if b&(1<<uint(i)) != 0 {
			lo ^= a << uint(i)
			hi ^= a >> uint(64-i) // shift by 64 yields 0 for i == 0
		}
	}
	for hi != 0 {
		i := bits.TrailingZeros64(hi)
		hi &^= 1 << uint(i)
		red := uint64(gf64ReductionPoly)
		lo ^= red << uint(i)
		if i >= 60 {
			hi ^= red >> uint(64-i)
		}
	}
	return lo
}

func TestGF64MulMatchesReference(t *testing.T) {
	r := rng.New(0x6F)
	for i := 0; i < 2000; i++ {
		a, b := r.Uint64(), r.Uint64()
		if got, want := gf64Mul(a, b), gf64MulRef(a, b); got != want {
			t.Fatalf("gf64Mul(%#x, %#x) = %#x, reference %#x", a, b, got, want)
		}
	}
	// Field axioms on random triples: commutativity, distributivity,
	// multiplicative identity.
	for i := 0; i < 500; i++ {
		a, b, c := r.Uint64(), r.Uint64(), r.Uint64()
		if gf64Mul(a, b) != gf64Mul(b, a) {
			t.Fatal("gf64Mul not commutative")
		}
		if gf64Mul(a, b^c) != gf64Mul(a, b)^gf64Mul(a, c) {
			t.Fatal("gf64Mul not distributive over xor")
		}
		if gf64Mul(a, 1) != a {
			t.Fatal("1 is not the multiplicative identity")
		}
	}
}

func TestGF64Inv(t *testing.T) {
	r := rng.New(0x1217)
	for i := 0; i < 200; i++ {
		a := r.Uint64()
		if a == 0 {
			continue
		}
		if gf64Mul(a, gf64Inv(a)) != 1 {
			t.Fatalf("a · a⁻¹ != 1 for a = %#x", a)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("gf64Inv(0) did not panic")
		}
	}()
	gf64Inv(0)
}

func TestShamirRoundTrip(t *testing.T) {
	secret := DeriveSecret(42, 7)
	xs := []uint64{1, 2, 3, 4, 5, 6, 7}
	for threshold := 1; threshold <= len(xs); threshold++ {
		shares, err := SplitSecret(&secret, xs, threshold, 99)
		if err != nil {
			t.Fatal(err)
		}
		// Any threshold-sized subset reconstructs; walk a few rotations.
		for rot := 0; rot < len(xs); rot++ {
			subset := make([]Share, 0, threshold)
			for k := 0; k < threshold; k++ {
				subset = append(subset, shares[(rot+k)%len(xs)])
			}
			got, err := CombineShares(subset, threshold)
			if err != nil {
				t.Fatal(err)
			}
			if got != secret {
				t.Fatalf("threshold %d rotation %d: reconstructed wrong secret", threshold, rot)
			}
		}
	}
}

func TestShamirBelowThresholdFails(t *testing.T) {
	secret := DeriveSecret(1, 1)
	shares, err := SplitSecret(&secret, []uint64{1, 2, 3, 4}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CombineShares(shares[:2], 3); err == nil {
		t.Fatal("2 of 3 shares reconstructed")
	}
	// With threshold 3, two shares alone must not determine the secret: a
	// forged third share yields a different (wrong) reconstruction.
	forged := append([]Share{}, shares[:2]...)
	forged = append(forged, Share{X: shares[2].X, Y: [4]uint64{1, 2, 3, 4}})
	got, err := CombineShares(forged, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got == secret {
		t.Fatal("forged share still reconstructed the true secret")
	}
}

func TestShamirDeterministic(t *testing.T) {
	secret := DeriveSecret(8, 3)
	xs := []uint64{10, 20, 30}
	a, err := SplitSecret(&secret, xs, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SplitSecret(&secret, xs, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same (secret, tag) produced different shares")
		}
	}
	c, err := SplitSecret(&secret, xs, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Y == c[0].Y {
		t.Fatal("different tags produced identical shares")
	}
}

func TestShamirValidation(t *testing.T) {
	secret := DeriveSecret(0, 0)
	if _, err := SplitSecret(&secret, []uint64{1, 2}, 3, 0); err == nil {
		t.Fatal("threshold above holder count accepted")
	}
	if _, err := SplitSecret(&secret, []uint64{1, 0}, 2, 0); err == nil {
		t.Fatal("zero evaluation point accepted")
	}
	if _, err := SplitSecretInto(make([]Share, 1), &secret, []uint64{1, 2}, 2, 0, nil); err == nil {
		t.Fatal("mismatched share buffer accepted")
	}
	shares, err := SplitSecret(&secret, []uint64{1, 2}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CombineShares(shares, 0); err == nil {
		t.Fatal("threshold 0 accepted")
	}
	dup := []Share{shares[0], shares[0]}
	if _, err := CombineShares(dup, 2); err == nil {
		t.Fatal("duplicate evaluation points accepted")
	}
	bad := []Share{{X: 0}, shares[1]}
	if _, err := CombineShares(bad, 2); err == nil {
		t.Fatal("zero evaluation point accepted in combine")
	}
}

func TestSplitSecretIntoReusesScratch(t *testing.T) {
	secret := DeriveSecret(5, 5)
	xs := []uint64{1, 2, 3, 4, 5}
	dst := make([]Share, len(xs))
	coeff, err := SplitSecretInto(dst, &secret, xs, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		coeff, err = SplitSecretInto(dst, &secret, xs, 3, 2, coeff)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SplitSecretInto allocates %.0f/op, want 0", allocs)
	}
}

// combineSharesRef is reconstruction one share at a time: every share's
// Lagrange-at-zero basis value from its own numerator and denominator
// products and its own field inversion. LagrangeBasis must agree with it.
func combineSharesRef(use []Share) [32]byte {
	var s [4]uint64
	for i := range use {
		num, den := uint64(1), uint64(1)
		for j := range use {
			if j != i {
				num = gf64Mul(num, use[j].X)
				den = gf64Mul(den, use[i].X^use[j].X)
			}
		}
		li := gf64Mul(num, gf64Inv(den))
		for l := 0; l < 4; l++ {
			s[l] ^= gf64Mul(li, use[i].Y[l])
		}
	}
	var secret [32]byte
	for l := 0; l < 4; l++ {
		binary.LittleEndian.PutUint64(secret[l*8:l*8+8], s[l])
	}
	return secret
}

// TestLagrangeBasisMatchesPerShareInversion drives the once-per-holder-set
// basis with random holder points (small party-ID-like and full 64-bit),
// thresholds and secrets: one Reset serves every secret shared among the
// same holders, and each Combine equals both the secret and the per-share
// reference — on the honest shares and on a forged one, where the two must
// agree on the same wrong secret.
func TestLagrangeBasisMatchesPerShareInversion(t *testing.T) {
	r := rng.New(0x5A)
	var basis LagrangeBasis
	for trial := 0; trial < 60; trial++ {
		holders := 1 + r.Intn(24)
		threshold := 1 + r.Intn(holders)
		xs := make([]uint64, 0, holders)
		seen := map[uint64]bool{0: true}
		for len(xs) < holders {
			x := r.Uint64()
			if trial%2 == 0 {
				x = 1 + uint64(r.Intn(5000))
			}
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
		// The reconstruction holders: a random threshold-sized subset in a
		// random order.
		pick := r.SampleWithoutReplacement(holders, threshold)
		pickXs := make([]uint64, threshold)
		for i, h := range pick {
			pickXs[i] = xs[h]
		}
		if err := basis.Reset(pickXs); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			secret := DeriveSecret(r.Uint64(), s)
			shares, err := SplitSecret(&secret, xs, threshold, uint64(trial))
			if err != nil {
				t.Fatal(err)
			}
			use := make([]Share, threshold)
			for i, h := range pick {
				use[i] = shares[h]
			}
			got, err := basis.Combine(use)
			if err != nil {
				t.Fatal(err)
			}
			if got != secret || got != combineSharesRef(use) {
				t.Fatalf("trial %d: %d-of-%d basis reconstruction is wrong", trial, threshold, holders)
			}
			if viaOne, err := CombineShares(use, threshold); err != nil || viaOne != secret {
				t.Fatalf("trial %d: CombineShares disagrees with the basis (%v)", trial, err)
			}
			use[r.Intn(threshold)].Y[r.Intn(4)] ^= 1 << uint(r.Intn(64))
			forged, err := basis.Combine(use)
			if err != nil {
				t.Fatal(err)
			}
			if forged == secret || forged != combineSharesRef(use) {
				t.Fatalf("trial %d: forged share reconstruction disagrees with the reference", trial)
			}
		}
	}
}

func TestLagrangeBasisValidation(t *testing.T) {
	var basis LagrangeBasis
	if err := basis.Reset(nil); err == nil {
		t.Fatal("empty holder set accepted")
	}
	if err := basis.Reset([]uint64{3, 9, 3}); err == nil {
		t.Fatal("duplicate evaluation points accepted")
	}
	if err := basis.Reset([]uint64{3, 0}); err == nil {
		t.Fatal("zero evaluation point accepted")
	}
	secret := DeriveSecret(2, 2)
	shares, err := SplitSecret(&secret, []uint64{5, 6, 7}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := basis.Reset([]uint64{5, 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := basis.Combine(shares); err == nil {
		t.Fatal("three shares accepted by a two-holder basis")
	}
	if _, err := basis.Combine([]Share{shares[1], shares[0]}); err == nil {
		t.Fatal("shares out of holder order accepted")
	}
	if _, err := basis.Combine([]Share{shares[0], shares[2]}); err == nil {
		t.Fatal("a share from outside the holder set accepted")
	}
	// Steady state — same holder count, fresh points — reuses its storage.
	allocs := testing.AllocsPerRun(50, func() {
		if err := basis.Reset([]uint64{6, 7}); err != nil {
			t.Fatal(err)
		}
		if _, err := basis.Combine(shares[1:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state basis Reset+Combine allocates %.0f/op, want 0", allocs)
	}
}

// referenceSplit is SplitSecretInto as a definition: every share limb is its
// own polynomial, evaluated by Horner with one scalar gf64Mul per degree.
func referenceSplit(secret *[32]byte, xs []uint64, threshold int, tag uint64) []Share {
	coeff := make([][4]uint64, threshold) // coeff[k] is degree k; coeff[0] unused
	for k := 1; k < threshold; k++ {
		coeff[k] = shamirCoeff(secret, tag, k)
	}
	shares := make([]Share, len(xs))
	for i, x := range xs {
		shares[i].X = x
		for l := 0; l < 4; l++ {
			var y uint64
			for k := threshold - 1; k >= 1; k-- {
				y = gf64Mul(y, x) ^ coeff[k][l]
			}
			shares[i].Y[l] = gf64Mul(y, x) ^ binary.LittleEndian.Uint64(secret[l*8:])
		}
	}
	return shares
}

// referenceCombine is LagrangeBasis.Combine with one scalar gf64Mul per
// share limb.
func referenceCombine(b *LagrangeBasis, shares []Share) [32]byte {
	var secret [32]byte
	for l := 0; l < 4; l++ {
		var s uint64
		for i := range shares {
			s ^= gf64Mul(b.coef[i], shares[i].Y[l])
		}
		binary.LittleEndian.PutUint64(secret[l*8:], s)
	}
	return secret
}

// TestGF64MulLimbsMatchesScalar pins the lockstep kernel to gf64Mul limb by
// limb, for party-ID-sized and full-width common factors and the edge
// factors 0 and 1.
func TestGF64MulLimbsMatchesScalar(t *testing.T) {
	r := rng.New(0x4C)
	for i := 0; i < 2000; i++ {
		x := r.Uint64() >> uint(r.Intn(64))
		if i < 2 {
			x = uint64(i)
		}
		y := [4]uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
		if i%7 == 0 {
			y[i%4] = 1 << 63
		}
		got := y
		gf64MulLimbs(&got, x)
		for l := range y {
			if want := gf64Mul(y[l], x); got[l] != want {
				t.Fatalf("limb %d of %#x · %#x = %#x, gf64Mul gives %#x", l, y, x, got[l], want)
			}
		}
	}
}

// TestShamirMatchesLimbByLimbReference compares the lockstep split and
// combine bit for bit with their limb-by-limb definitions: cohorts of 2, 40
// and 130 holders, every threshold 1…k, evaluation points that are party IDs
// up to 2^40, and reconstruction from the last threshold holders.
func TestShamirMatchesLimbByLimbReference(t *testing.T) {
	r := rng.New(0xC0)
	var basis LagrangeBasis
	var coeff []uint64
	for _, k := range []int{2, 40, 130} {
		xs := make([]uint64, k)
		seen := map[uint64]bool{0: true}
		for i := range xs {
			x := uint64(0)
			for seen[x] {
				x = r.Uint64() >> uint(24+r.Intn(40)) // 1 … 40 bits
			}
			seen[x] = true
			xs[i] = x
		}
		xs[0] = 1 << 40
		got := make([]Share, k)
		for threshold := 1; threshold <= k; threshold++ {
			secret := DeriveSecret(uint64(k), threshold)
			tag := uint64(threshold) * 3
			var err error
			if coeff, err = SplitSecretInto(got, &secret, xs, threshold, tag, coeff); err != nil {
				t.Fatal(err)
			}
			want := referenceSplit(&secret, xs, threshold, tag)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d threshold=%d holder %d: share %v, limb-by-limb reference %v", k, threshold, i, got[i], want[i])
				}
			}
			use := got[k-threshold:]
			if err := basis.Reset(xs[k-threshold:]); err != nil {
				t.Fatal(err)
			}
			rec, err := basis.Combine(use)
			if err != nil {
				t.Fatal(err)
			}
			if rec != secret || rec != referenceCombine(&basis, use) {
				t.Fatalf("k=%d threshold=%d: Combine differs from the secret or the limb-by-limb reference", k, threshold)
			}
		}
	}
}

// BenchmarkSplitSecret measures one member's escrow at the masked_sync
// shape: a 40-member cohort with party-ID evaluation points and the majority
// threshold, into reused share and coefficient storage. Allocation-free,
// pinned by the CI ratchet.
func BenchmarkSplitSecret(b *testing.B) {
	b.Run("k=40", func(b *testing.B) {
		const k = 40
		secret := DeriveSecret(3, 4)
		xs := make([]uint64, k)
		for i := range xs {
			xs[i] = uint64(i)*5 + 1
		}
		dst := make([]Share, k)
		coeff, err := SplitSecretInto(dst, &secret, xs, k/2+1, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if coeff, err = SplitSecretInto(dst, &secret, xs, k/2+1, uint64(i), coeff); err != nil {
				b.Fatal(err)
			}
		}
	})
}
