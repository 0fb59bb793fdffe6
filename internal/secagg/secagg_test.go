package secagg

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"flips/internal/rng"
)

func mustEncode(t testing.TB, x float64) uint64 {
	t.Helper()
	v, err := EncodeFixed(x)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFixedPointRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		x := r.NormFloat64() * 100
		return math.Abs(DecodeFixed(mustEncode(t, x))-x) < 1e-6
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if DecodeFixed(mustEncode(t, -3.25)) != -3.25 {
		t.Fatal("negative round-trip")
	}
}

func TestEncodeFixedRejectsNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := EncodeFixed(x); err == nil {
			t.Fatalf("EncodeFixed(%v) accepted a non-finite value", x)
		}
	}
}

func TestEncodeFixedRejectsOverflow(t *testing.T) {
	// MaxSumMagnitude (2^33) is exactly the single-value bound: round(x·2^30)
	// must stay inside int64.
	if _, err := EncodeFixed(MaxSumMagnitude); err == nil {
		t.Fatal("EncodeFixed(2^33) accepted; int64 conversion would be out of range")
	}
	if _, err := EncodeFixed(-2 * MaxSumMagnitude); err == nil {
		t.Fatal("EncodeFixed(-2^34) accepted")
	}
	// Just inside the bound encodes and round-trips.
	x := MaxSumMagnitude - 1
	if got := DecodeFixed(mustEncode(t, x)); got != x {
		t.Fatalf("near-bound round-trip: got %v want %v", got, x)
	}
}

func TestFixedPointSumWraps(t *testing.T) {
	// Document the headroom bound: two encodings whose real sum stays below
	// MaxSumMagnitude decode to the real sum; at the bound the ring wraps and
	// the decoded value is wildly wrong with no error signal.
	half := MaxSumMagnitude/2 - 1
	ok := mustEncode(t, half) + mustEncode(t, half)
	if got, want := DecodeFixed(ok), 2*half; math.Abs(got-want) > 1e-6 {
		t.Fatalf("in-headroom sum decoded to %v, want %v", got, want)
	}
	atBound := mustEncode(t, MaxSumMagnitude/2) + mustEncode(t, MaxSumMagnitude/2)
	if got := DecodeFixed(atBound); got > 0 {
		t.Fatalf("sum at the headroom bound decoded to %v; expected a wrapped (negative) value demonstrating overflow", got)
	}
	if err := CheckSumHeadroom(MaxSumMagnitude / 2); err != nil {
		t.Fatalf("CheckSumHeadroom below the bound: %v", err)
	}
	if err := CheckSumHeadroom(MaxSumMagnitude); err == nil {
		t.Fatal("CheckSumHeadroom accepted a wrapping bound")
	}
	if err := CheckSumHeadroom(math.NaN()); err == nil {
		t.Fatal("CheckSumHeadroom accepted NaN")
	}
}

func TestDeriveSecretDeterministicAndDistinct(t *testing.T) {
	a := DeriveSecret(7, 1)
	if b := DeriveSecret(7, 1); a != b {
		t.Fatal("DeriveSecret not deterministic")
	}
	if b := DeriveSecret(7, 2); a == b {
		t.Fatal("distinct parties derived the same secret")
	}
	if b := DeriveSecret(8, 1); a == b {
		t.Fatal("distinct seeds derived the same secret")
	}
	if _, err := PrivateKeyFromSecret(&a); err != nil {
		t.Fatalf("derived secret is not a valid X25519 scalar: %v", err)
	}
}

func TestPairSeedSymmetric(t *testing.T) {
	sa, sb := DeriveSecret(3, 10), DeriveSecret(3, 11)
	ka, err := PrivateKeyFromSecret(&sa)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := PrivateKeyFromSecret(&sb)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := PairSeed(ka, kb.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	ba, err := PairSeed(kb, ka.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if ab != ba {
		t.Fatal("pair seed not symmetric")
	}
}

func TestAddPairMaskCancelsAndShards(t *testing.T) {
	seed := DeriveSecret(9, 0)
	const dim = 19
	acc := make([]uint64, dim)
	// Opposite signs over the full range cancel exactly.
	AddPairMask(acc, &seed, 4, 0, dim, false)
	AddPairMask(acc, &seed, 4, 0, dim, true)
	for i, v := range acc {
		if v != 0 {
			t.Fatalf("coordinate %d: masks did not cancel (%d)", i, v)
		}
	}
	// One full-range expansion equals the same stream expanded in arbitrary
	// sub-ranges: the mask word is a pure function of the coordinate.
	whole := make([]uint64, dim)
	AddPairMask(whole, &seed, 4, 0, dim, false)
	parts := make([]uint64, dim)
	for _, r := range [][2]int{{0, 3}, {3, 4}, {4, 11}, {11, dim}} {
		AddPairMask(parts, &seed, 4, r[0], r[1], false)
	}
	for i := range whole {
		if whole[i] != parts[i] {
			t.Fatalf("coordinate %d: sharded expansion %d != whole-range %d", i, parts[i], whole[i])
		}
	}
	// Distinct tags give distinct streams.
	other := make([]uint64, dim)
	AddPairMask(other, &seed, 5, 0, dim, false)
	same := 0
	for i := range whole {
		if whole[i] == other[i] {
			same++
		}
	}
	if same == dim {
		t.Fatal("tag 4 and tag 5 produced identical mask streams")
	}
}

// maskStreamWordRef is the definition of the pair-mask stream, one word at a
// time and from scratch: coordinate c is output c mod 512 of a fresh ChaCha8
// generator keyed with
// sha256("flips-secagg-mask-v3" ‖ seed ‖ tag ‖ c div 512), tag and chunk
// index little-endian.
func maskStreamWordRef(seed *[32]byte, tag uint64, c int) uint64 {
	h := sha256.New()
	h.Write([]byte("flips-secagg-mask-v3"))
	h.Write(seed[:])
	h.Write(binary.LittleEndian.AppendUint64(nil, tag))
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(c/512)))
	gen := rand.NewChaCha8([32]byte(h.Sum(nil)))
	for range c % 512 {
		gen.Uint64()
	}
	return gen.Uint64()
}

// requireMaskPartition expands one stream over the consecutive ranges cut at
// bounds (ascending, within [0, n]; empty ranges allowed) on top of a
// non-zero accumulator, and requires every coordinate to equal both the
// single [0, n) call and the word-by-word definition of the stream.
func requireMaskPartition(t *testing.T, seed *[32]byte, tag uint64, n int, bounds []int, negate bool) {
	t.Helper()
	whole, parts := make([]uint64, n), make([]uint64, n)
	for c := range whole {
		whole[c] = uint64(c) * 0x9E3779B97F4A7C15
		parts[c] = whole[c]
	}
	AddPairMask(whole, seed, tag, 0, n, negate)
	lo := 0
	for _, hi := range append(append([]int(nil), bounds...), n) {
		AddPairMask(parts, seed, tag, lo, hi, negate)
		lo = hi
	}
	for c := range whole {
		m := maskStreamWordRef(seed, tag, c)
		if negate {
			m = -m
		}
		want := uint64(c)*0x9E3779B97F4A7C15 + m
		if whole[c] != want {
			t.Fatalf("n=%d coordinate %d: whole-range expansion is not the stream's word", n, c)
		}
		if parts[c] != want {
			t.Fatalf("n=%d bounds %v coordinate %d: partitioned expansion differs from the whole range", n, bounds, c)
		}
	}
}

// TestAddPairMaskPartitions pins range independence: however [0, n) is cut
// — inside a keystream chunk, on its edges, into single words, with empty
// ranges — the ranges add up to the one-call expansion.
func TestAddPairMaskPartitions(t *testing.T) {
	seed := DeriveSecret(11, 3)
	for _, tc := range []struct {
		n      int
		bounds []int
	}{
		{1, nil},
		{1, []int{0, 1}},
		{3, []int{1, 2}},
		{4, []int{4}},
		{5, []int{4}},
		{5, []int{1, 2, 3, 4}},
		{8, []int{4}},
		{9, []int{3, 3, 7}},
		{166, []int{40, 84, 124}},
		{166, []int{41, 83, 125}},
		{188, []int{1, 186, 187}},
		{4097, []int{1024, 2048, 3072, 4096}},
		{MaskChunk - 1, []int{0, 1, MaskChunk - 2}},
		{MaskChunk, []int{MaskChunk - 1, MaskChunk}},
		{MaskChunk + 1, []int{MaskChunk}},
		{MaskChunk + 1, []int{MaskChunk - 1, MaskChunk - 1, MaskChunk, MaskChunk}},
		{MaskChunk + 1, []int{7}},
		{2*MaskChunk + 3, []int{MaskChunk, 2 * MaskChunk}},
		{2*MaskChunk + 3, []int{MaskChunk - 1, MaskChunk + 1, 2*MaskChunk - 1, 2*MaskChunk + 1}},
		{2*MaskChunk + 3, []int{5, 5, 2*MaskChunk + 2}},
	} {
		for _, negate := range []bool{false, true} {
			requireMaskPartition(t, &seed, 7, tc.n, tc.bounds, negate)
		}
	}
}

// TestMaskStreamStateDoesNotLeak requires an expansion to depend on nothing
// the generator state did before: a MaskStream that just expanded a
// different (seed, tag) — stopping mid-chunk, mid-block — produces the words
// a fresh state produces, which are the words package-level AddPairMask
// produces.
func TestMaskStreamStateDoesNotLeak(t *testing.T) {
	seed, other := DeriveSecret(21, 1), DeriveSecret(21, 2)
	const n = MaskChunk + 77
	for _, r := range [][2]int{{0, n}, {3, 40}, {MaskChunk - 5, MaskChunk + 5}, {MaskChunk, n}} {
		for _, negate := range []bool{false, true} {
			var ms MaskStream
			ms.AddPairMask(make([]uint64, n), &other, 9, 11, MaskChunk+13, !negate)
			ms.AddPairMask(make([]uint64, n), &seed, 8, 0, 45, negate)
			used, fresh := make([]uint64, n), make([]uint64, n)
			ms.AddPairMask(used, &seed, 9, r[0], r[1], negate)
			AddPairMask(fresh, &seed, 9, r[0], r[1], negate)
			for c := range used {
				if used[c] != fresh[c] {
					t.Fatalf("range %v coordinate %d: a used MaskStream and a fresh one disagree", r, c)
				}
			}
		}
	}
}

// BenchmarkAddPairMask measures one pair-mask expansion through per-worker
// generator state: the masked_sync vector (165 parameters plus the weight,
// inside one chunk) and a 16-chunk vector. Allocation-free, pinned by the CI
// ratchet.
func BenchmarkAddPairMask(b *testing.B) {
	seed := DeriveSecret(1, 2)
	for _, n := range []int{166, 8192} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var ms MaskStream
			acc := make([]uint64, n)
			b.SetBytes(int64(8 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms.AddPairMask(acc, &seed, uint64(i), 0, n, i&1 == 1)
			}
		})
	}
}
