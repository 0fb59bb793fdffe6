package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"flips/internal/fmath"
)

// polarTransformReference is the Go loop kernels_other.go runs on every
// GOARCH but amd64: the chain the SSE2 kernel must reproduce word for word.
func polarTransformReference(dst, s []float64) {
	for i, u := range dst {
		dst[i] = polar(u, s[i])
	}
}

func sameFloatBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestNormFloat64Digest pins the bits of 16 streams of 65,536 normals each,
// and the state each stream ends in, as they were drawn through math.Log on
// amd64. It holds on every GOARCH: the transform's logarithm is fmath.Log,
// not the host's libm.
func TestNormFloat64Digest(t *testing.T) {
	t.Parallel()
	h := sha256.New()
	var w [8]byte
	for seed := uint64(0); seed < 16; seed++ {
		r := New(seed)
		for i := 0; i < 1<<16; i++ {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(r.NormFloat64()))
			h.Write(w[:])
		}
		for _, x := range r.State() {
			binary.LittleEndian.PutUint64(w[:], x)
			h.Write(w[:])
		}
	}
	const want = "7a89114b362cade005907ad30022f3b18b004f2616f52f0424b74253a1f47762"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("NormFloat64 digest %s, want %s", got, want)
	}
}

// TestLogPolarMatchesMathLog checks the logarithm the polar transform takes,
// fmath.Log, against the bits math.Log gave on amd64, where it is the
// assembly fmath.Log ports: on the polar domain's edges and exponents, at the
// √2/2 fold, and over every positive normal exponent. The bits are pinned as
// a digest, so every GOARCH checks them.
func TestLogPolarMatchesMathLog(t *testing.T) {
	t.Parallel()
	h := sha256.New()
	var w [8]byte
	check := func(x float64) {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(fmath.Log(x)))
		h.Write(w[:])
	}
	for _, x := range []float64{0x1p-104, 0x1p-1022, math.Nextafter(1, 0), 0.5, 1, 2, math.MaxFloat64} {
		check(x)
	}
	const hSqrt2 = 7.07106781186547524401e-01
	for e := -104; e <= 1; e++ {
		for _, f := range []float64{hSqrt2, math.Nextafter(hSqrt2, 0), math.Nextafter(hSqrt2, 1)} {
			check(math.Ldexp(f, e))
		}
	}
	r := New(1)
	for i := 0; i < 1_000_000; i++ {
		// Any positive normal: a random mantissa under a random exponent.
		b := r.Uint64()&(1<<52-1) | uint64(1+r.Intn(0x7FE))<<52
		check(math.Float64frombits(b))
		check(polarS(r.Uint64()))
	}
	const want = "ecc92d2ff2f332741f272fc285031868ab3dbf851dda0fc7c7f050f4858e9ff3"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("fmath.Log digest %s, want %s (math.Log's on amd64)", got, want)
	}
}

// TestNormalsMatchesNormFloat64 fills vectors of every length through 130 —
// past two scan chunks — back to back from one stream, and checks each word
// and the stream's position after each call against NormFloat64 calls.
func TestNormalsMatchesNormFloat64(t *testing.T) {
	t.Parallel()
	for seed := uint64(0); seed < 40; seed++ {
		got, want := New(seed), New(seed)
		for n := 0; n <= 130; n++ {
			dst := make([]float64, n)
			got.Normals(dst)
			for i := range dst {
				if y := want.NormFloat64(); !sameFloatBits(dst[i], y) {
					t.Fatalf("seed %d length %d word %d: %v, NormFloat64 gives %v", seed, n, i, dst[i], y)
				}
			}
			if got.State() != want.State() {
				t.Fatalf("seed %d length %d: Normals leaves the stream elsewhere than %d NormFloat64 calls", seed, n, n)
			}
		}
	}
}

// TestPolarAccept checks the scan's branch-free acceptance against
// NormFloat64's 0 < s < 1 at the edges of the interval and beyond.
func TestPolarAccept(t *testing.T) {
	t.Parallel()
	for _, s := range []float64{0, math.SmallestNonzeroFloat64, 0x1p-104, 0.5, math.Nextafter(1, 0), 1,
		math.Nextafter(1, 2), 2, math.MaxFloat64, math.Inf(1)} {
		want := 0
		if s > 0 && s < 1 {
			want = 1
		}
		if got := polarAccept(s); got != want {
			t.Errorf("polarAccept(%v) = %d, want %d", s, got, want)
		}
	}
}

// polarS maps 64 arbitrary bits into the polar domain [2⁻¹⁰⁴, 1): a mantissa
// under one of the domain's 104 exponents.
func polarS(b uint64) float64 {
	return math.Float64frombits(b&(1<<52-1) | (0x3FE-(b>>52)%104)<<52)
}

// checkPolarTransform runs the transform over (u, s) against the Go loop,
// word for word, with a guard word on each side of the output.
func checkPolarTransform(t *testing.T, u, s []float64) {
	t.Helper()
	n := len(u)
	backing := make([]float64, n+2)
	backing[0], backing[n+1] = 0x1p100, -0x1p100
	got := backing[1 : n+1 : n+1]
	copy(got, u)
	want := append([]float64(nil), u...)
	polarTransform(got, s)
	polarTransformReference(want, s)
	for i := range got {
		if !sameFloatBits(got[i], want[i]) {
			t.Fatalf("length %d word %d: u %v s %v (%#x) gives %v (%#x), the Go loop %v (%#x)",
				n, i, u[i], s[i], math.Float64bits(s[i]), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	if backing[0] != 0x1p100 || backing[n+1] != -0x1p100 {
		t.Fatalf("length %d: the transform wrote outside its output", n)
	}
}

// TestPolarTransformMatchesGoLoop covers the domain's edges — s = 2⁻¹⁰⁴, s
// one ulp below 1, the √2/2 fold — and u ∈ {−1, ±0}, at odd and even
// lengths, then random pairs.
func TestPolarTransformMatchesGoLoop(t *testing.T) {
	t.Parallel()
	const hSqrt2 = 7.07106781186547524401e-01
	edgeS := []float64{
		0x1p-104, math.Nextafter(0x1p-104, 1), math.Nextafter(1, 0), 0.5, math.Nextafter(0.5, 0),
		hSqrt2, math.Nextafter(hSqrt2, 0), math.Nextafter(hSqrt2, 1), 0x1p-52, 0.25,
	}
	edgeU := []float64{-1, 0, math.Copysign(0, -1), math.Nextafter(1, 0), 0x1p-52, -0x1p-52}
	for _, u := range edgeU {
		for _, s := range edgeS {
			checkPolarTransform(t, []float64{u}, []float64{s})
			checkPolarTransform(t, []float64{u, -u}, []float64{s, s})
			checkPolarTransform(t, []float64{0.5, u, u}, []float64{0.5, s, math.Nextafter(s, 0)})
		}
	}
	// At f1 = √2/2 exactly the kernel's compare does not fold and
	// fmath.Log's does; the two chains round to the same bits at every
	// exponent of the domain.
	for e := -104; e < 0; e++ {
		s := math.Ldexp(hSqrt2, e)
		checkPolarTransform(t, []float64{-1, 0.5}, []float64{s, s})
	}
	r := New(3)
	for n := 0; n <= 67; n++ {
		u, s := make([]float64, n), make([]float64, n)
		for i := range u {
			u[i] = 2*r.Float64() - 1
			s[i] = polarS(r.Uint64())
		}
		checkPolarTransform(t, u, s)
	}
}

// FuzzNormals checks Normals against NormFloat64 for a fuzzed seed and
// length, and the transform kernel against the Go loop on fuzzed (u, s) bit
// patterns in the polar domain.
func FuzzNormals(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint64(0), uint64(0))
	f.Add(uint64(7), uint8(64), uint64(1<<63), uint64(103)<<52)
	f.Add(uint64(42), uint8(200), uint64(0xBFF0000000000000), uint64(1<<52-1))
	f.Fuzz(func(t *testing.T, seed uint64, length uint8, ub, sb uint64) {
		n := int(length) % 201
		got, want := New(seed), New(seed)
		dst := make([]float64, n)
		got.Normals(dst)
		for i := range dst {
			if y := want.NormFloat64(); !sameFloatBits(dst[i], y) {
				t.Fatalf("seed %d length %d word %d: %v, NormFloat64 gives %v", seed, n, i, dst[i], y)
			}
		}
		if got.State() != want.State() {
			t.Fatalf("seed %d length %d: Normals leaves the stream elsewhere", seed, n)
		}
		// u is any float but NaN, whose payload the product may take from
		// either operand; a NaN pattern becomes a draw's multiple of 2⁻⁵².
		u := math.Float64frombits(ub)
		if math.IsNaN(u) {
			u = float64(int64(ub>>11)-1<<52) * 0x1p-52
		}
		s := polarS(sb)
		s2 := polarS(sb ^ ub)
		checkPolarTransform(t, []float64{u, -u, u}, []float64{s, s2, s})
	})
}

func BenchmarkNormals(b *testing.B) {
	r := New(1)
	dst := make([]float64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Normals(dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/normal")
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	dst := make([]float64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = r.NormFloat64()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/normal")
}

// benchmarkPolarTransform times one chunk's transform over accepted pairs.
func benchmarkPolarTransform(b *testing.B, transform func(dst, s []float64)) {
	r := New(2)
	u, s := make([]float64, normalChunk), make([]float64, normalChunk)
	r.polarScan(u, s)
	dst := make([]float64, normalChunk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(dst, u)
		transform(dst, s)
	}
}

func BenchmarkPolarTransform(b *testing.B) { benchmarkPolarTransform(b, polarTransform) }

func BenchmarkPolarTransformReference(b *testing.B) {
	benchmarkPolarTransform(b, polarTransformReference)
}
