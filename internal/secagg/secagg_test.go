package secagg

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"flips/internal/rng"
)

func buildParties(t testing.TB, n int) ([]*Party, []Peer) {
	t.Helper()
	parties := make([]*Party, n)
	peers := make([]Peer, n)
	for i := 0; i < n; i++ {
		p, err := NewParty(i)
		if err != nil {
			t.Fatal(err)
		}
		parties[i] = p
		peers[i] = Peer{ID: i, PublicKey: p.PublicKey()}
	}
	return parties, peers
}

func TestMaskedAggregationRecoversSum(t *testing.T) {
	const n, dim = 8, 50
	parties, peers := buildParties(t, n)
	r := rng.New(1)
	updates := make([][]float64, n)
	want := make([]float64, dim)
	for i := range updates {
		u := make([]float64, dim)
		for j := range u {
			u[j] = r.NormFloat64()
			want[j] += u[j]
		}
		updates[i] = u
	}
	masked := make([]*MaskedUpdate, n)
	for i, p := range parties {
		m, err := p.Mask(updates[i], peers)
		if err != nil {
			t.Fatal(err)
		}
		masked[i] = m
	}
	got, err := Aggregate(masked, dim)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-6 {
			t.Fatalf("dim %d: got %v want %v", j, got[j], want[j])
		}
	}
}

func TestMaskedUpdateHidesPlaintext(t *testing.T) {
	// A single party's masked vector must not equal its fixed-point
	// plaintext when peers exist (the mask is cryptographically random).
	parties, peers := buildParties(t, 3)
	update := []float64{1, 2, 3, 4}
	masked, err := parties[0].Mask(update, peers)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i, x := range update {
		if masked.Values[i] == mustEncode(t, x) {
			same++
		}
	}
	if same == len(update) {
		t.Fatal("masked update equals plaintext encoding")
	}
}

func TestMaskedAggregationMissingPartyCorrupts(t *testing.T) {
	// Dropping a contributor leaves unmatched masks: the decoded sum must
	// differ from the true partial sum (this is why full secure aggregation
	// needs dropout recovery).
	const n, dim = 4, 8
	parties, peers := buildParties(t, n)
	masked := make([]*MaskedUpdate, 0, n-1)
	truth := make([]float64, dim)
	for i, p := range parties {
		update := make([]float64, dim)
		for j := range update {
			update[j] = 1
		}
		m, err := p.Mask(update, peers)
		if err != nil {
			t.Fatal(err)
		}
		if i == n-1 {
			continue // drop the last party's contribution
		}
		for j := range truth {
			truth[j] += update[j]
		}
		masked = append(masked, m)
	}
	got, err := Aggregate(masked, dim)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for j := range truth {
		diff += math.Abs(got[j] - truth[j])
	}
	if diff < 1 {
		t.Fatal("partial aggregate decoded cleanly; masks should not cancel")
	}
}

func TestAggregateValidation(t *testing.T) {
	if _, err := Aggregate(nil, 4); err == nil {
		t.Fatal("empty aggregate accepted")
	}
	if _, err := Aggregate([]*MaskedUpdate{{PartyID: 0, Values: make([]uint64, 3)}}, 4); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

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
	const dim = 19 // odd length exercises the partial final block
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
// time: coordinate c is little-endian word c mod 4 of
// sha256(seed ‖ tag ‖ c div 4).
func maskStreamWordRef(seed *[32]byte, tag uint64, c int) uint64 {
	var buf [48]byte
	copy(buf[:32], seed[:])
	binary.LittleEndian.PutUint64(buf[32:40], tag)
	binary.LittleEndian.PutUint64(buf[40:48], uint64(c>>2))
	d := sha256.Sum256(buf[:])
	return binary.LittleEndian.Uint64(d[(c&3)*8:])
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
// — inside a 4-word hash block, on its edges, into single words, with empty
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
	} {
		for _, negate := range []bool{false, true} {
			requireMaskPartition(t, &seed, 7, tc.n, tc.bounds, negate)
		}
	}
}

func testKey(t testing.TB) *PaillierPrivateKey {
	t.Helper()
	sk, err := GeneratePaillierKey(512) // small modulus keeps tests fast
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestPaillierEncryptDecrypt(t *testing.T) {
	sk := testKey(t)
	for _, m := range []int64{0, 1, 42, 1 << 40} {
		c, err := sk.Encrypt(big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != m {
			t.Fatalf("decrypt(%d) = %v", m, got)
		}
	}
}

func TestPaillierProbabilistic(t *testing.T) {
	sk := testKey(t)
	c1, _ := sk.Encrypt(big.NewInt(7))
	c2, _ := sk.Encrypt(big.NewInt(7))
	if c1.Cmp(c2) == 0 {
		t.Fatal("two encryptions of the same plaintext are identical")
	}
}

func TestPaillierHomomorphicAddition(t *testing.T) {
	sk := testKey(t)
	c1, _ := sk.Encrypt(big.NewInt(100))
	c2, _ := sk.Encrypt(big.NewInt(23))
	sum, err := sk.Decrypt(sk.AddCipher(c1, c2))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Int64() != 123 {
		t.Fatalf("homomorphic sum %v", sum)
	}
}

func TestPaillierRejectsBadInputs(t *testing.T) {
	sk := testKey(t)
	if _, err := sk.Encrypt(big.NewInt(-1)); err == nil {
		t.Fatal("negative plaintext accepted")
	}
	if _, err := sk.Encrypt(new(big.Int).Set(sk.N)); err == nil {
		t.Fatal("plaintext >= n accepted")
	}
	if _, err := sk.Decrypt(big.NewInt(0)); err == nil {
		t.Fatal("zero ciphertext accepted")
	}
	if _, err := GeneratePaillierKey(64); err == nil {
		t.Fatal("tiny modulus accepted")
	}
}

func TestPaillierVectorAggregation(t *testing.T) {
	sk := testKey(t)
	r := rng.New(3)
	const parties, dim = 5, 12
	vectors := make([][]*big.Int, parties)
	want := make([]float64, dim)
	for p := 0; p < parties; p++ {
		update := make([]float64, dim)
		for j := range update {
			update[j] = r.NormFloat64()
			want[j] += update[j]
		}
		enc, err := sk.EncryptVector(update)
		if err != nil {
			t.Fatal(err)
		}
		vectors[p] = enc
	}
	aggCipher, err := sk.AggregateCiphertexts(vectors)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.DecryptVectorSum(aggCipher, parties)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-6 {
			t.Fatalf("dim %d: got %v want %v", j, got[j], want[j])
		}
	}
}

func TestPaillierAggregateValidation(t *testing.T) {
	sk := testKey(t)
	if _, err := sk.AggregateCiphertexts(nil); err == nil {
		t.Fatal("empty aggregation accepted")
	}
	v1, _ := sk.EncryptVector([]float64{1, 2})
	v2, _ := sk.EncryptVector([]float64{1})
	if _, err := sk.AggregateCiphertexts([][]*big.Int{v1, v2}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestEncodeDecodeFloatSum(t *testing.T) {
	xs := []float64{-5.5, 0, 2.25}
	sum := new(big.Int)
	for _, x := range xs {
		sum.Add(sum, EncodeFloat(x))
	}
	if got := DecodeFloatSum(sum, len(xs)); math.Abs(got-(-3.25)) > 1e-6 {
		t.Fatalf("decoded %v", got)
	}
}
