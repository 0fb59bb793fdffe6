package secagg

import (
	"math"
	"testing"
)

// FuzzFixedPoint drives the fixed-point codec with arbitrary float pairs:
// non-finite inputs must be rejected, in-range values must round-trip
// within half a quantum, and two in-headroom encodings must sum in the ring
// to the encoding of the real sum (the additive-homomorphism property every
// masked fold relies on). Out-of-range values must error rather than wrap
// silently.
func FuzzFixedPoint(f *testing.F) {
	f.Add(0.0, 0.0)
	f.Add(1.5, -2.25)
	f.Add(math.Pi, math.Sqrt2)
	f.Add(MaxSumMagnitude/2, MaxSumMagnitude/2)
	f.Add(MaxSumMagnitude, 1.0)
	f.Add(math.Inf(1), math.NaN())
	f.Add(-math.MaxFloat64, math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, a, b float64) {
		const quantum = 1.0 / FixedPointScale
		for _, x := range []float64{a, b} {
			v, err := EncodeFixed(x)
			switch {
			case math.IsNaN(x) || math.IsInf(x, 0):
				if err == nil {
					t.Fatalf("EncodeFixed(%v) accepted a non-finite value", x)
				}
			case math.Abs(x) >= MaxSumMagnitude:
				// At or beyond ±2^33 the scaled value leaves int64 (the
				// rounded edge case exactly at the boundary may legally
				// encode when rounding pulls it back in, so only assert the
				// strict interior of the overflow region).
				if math.Abs(x) > MaxSumMagnitude && err == nil {
					t.Fatalf("EncodeFixed(%v) accepted an overflowing value", x)
				}
			default:
				if err != nil {
					t.Fatalf("EncodeFixed(%v) rejected an in-range value: %v", x, err)
				}
				if got := DecodeFixed(v); math.Abs(got-x) > quantum/2+math.Abs(x)*1e-15 {
					t.Fatalf("round-trip %v -> %v (err %v)", x, got, got-x)
				}
			}
		}
		// Homomorphism: when both values and their sum stay inside the
		// headroom bound, ring addition of encodings decodes to the real sum
		// within one quantum per term.
		if !math.IsNaN(a) && !math.IsInf(a, 0) && !math.IsNaN(b) && !math.IsInf(b, 0) &&
			math.Abs(a)+math.Abs(b) < MaxSumMagnitude-1 {
			ea, err1 := EncodeFixed(a)
			eb, err2 := EncodeFixed(b)
			if err1 != nil || err2 != nil {
				t.Fatalf("in-headroom values rejected: %v %v", err1, err2)
			}
			if got, want := DecodeFixed(ea+eb), a+b; math.Abs(got-want) > 2*quantum {
				t.Fatalf("encode(%v)+encode(%v) decoded to %v, want %v", a, b, got, want)
			}
		}
	})
}

// FuzzAddPairMaskRanges cuts [0, n) into ranges of fuzzer-chosen lengths
// (zero-length ranges included) and requires the partitioned expansion of a
// pair-mask stream to equal the one-call expansion and the stream's
// word-by-word definition — the property that lets a settlement spread one
// contributor's masks over coordinate blocks and workers.
func FuzzAddPairMaskRanges(f *testing.F) {
	f.Add(uint16(1), []byte{}, uint64(0), false)
	f.Add(uint16(5), []byte{4}, uint64(1), true)
	f.Add(uint16(166), []byte{40, 44, 40}, uint64(68), false)
	f.Add(uint16(19), []byte{0, 3, 1, 0, 7}, uint64(4), true)
	f.Add(uint16(1030), []byte{255, 255, 255, 255, 1}, uint64(1)<<63, false)
	// [455, 1301) starts inside chunk 0 and crosses two chunk boundaries.
	f.Add(uint16(1300), []byte{200, 0, 255}, uint64(22), true)
	f.Fuzz(func(t *testing.T, n uint16, steps []byte, tag uint64, negate bool) {
		size := int(n)%2048 + 1
		var bounds []int
		at := 0
		for _, s := range steps {
			at = min(at+int(s), size)
			bounds = append(bounds, at)
		}
		seed := DeriveSecret(tag, size)
		requireMaskPartition(t, &seed, tag, size, bounds, negate)
	})
}
