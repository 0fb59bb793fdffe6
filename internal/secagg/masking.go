// Package secagg holds the primitives of Bonawitz-style secure aggregation
// (CCS'17) that the fl engine's privacy middleware (fl/privacy.go) composes:
//
//   - fixed-point encoding of float64 model updates into the ring Z_{2^64}
//     and its headroom check;
//   - pairwise additive masks: every pair of parties derives a shared seed
//     from a real X25519 key agreement and expands it into a mask stream — a
//     ChaCha8 keystream rekeyed every MaskChunk words — that one side adds
//     and the other subtracts, so the masks cancel in the sum and the server
//     learns only the aggregate;
//   - Shamir secret sharing over GF(2^64) (shamir.go), which lets a cohort
//     escrow each member's mask-seed secret so the coordinator can
//     reconstruct exactly the masks of parties that drop mid-round.
package secagg

import (
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
)

// FixedPointScale converts floats to integers with ~9 decimal digits of
// fraction, leaving headroom for sums over thousands of parties in uint64
// arithmetic (mod 2^64).
const FixedPointScale = 1 << 30

// MaxSumMagnitude is the fixed-point headroom bound: a set of real values
// whose absolute values sum strictly below this encodes and folds in
// Z_{2^64} without wrapping past the int64 sign boundary. The encoding maps
// x to round(x·2^30) in two's complement, so the representable range is
// ±2^63 scaled units = ±2^33 real units; any partial sum of encodings whose
// real magnitude stays below 2^33 is exactly the encoding of the real sum
// (up to per-term rounding), while a sum at or beyond it wraps silently —
// decode returns a value of the wrong sign and magnitude with no error
// signal, which is why configs must be validated against this bound
// (CheckSumHeadroom) before any masked fold runs.
const MaxSumMagnitude = float64(1 << 33)

// two63 is 2^63 as a float64 (exactly representable); round(x·2^30) must be
// strictly below it and at least −2^63 for the int64 conversion in
// EncodeFixed to be defined.
var two63 = math.Ldexp(1, 63)

// EncodeFixed maps a float64 to the ring Z_{2^64} in two's-complement
// style. It rejects non-finite inputs — Go's float→int conversion of NaN or
// ±Inf is implementation-specific, so a NaN here would silently poison the
// whole masked sum — and values whose scaled magnitude falls outside int64,
// mirroring the fl engine's admitUpdate finiteness gate at the encode
// boundary.
func EncodeFixed(x float64) (uint64, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("secagg: cannot encode non-finite value %v", x)
	}
	scaled := math.Round(x * FixedPointScale)
	if scaled >= two63 || scaled < -two63 {
		return 0, fmt.Errorf("secagg: value %v overflows the fixed-point range ±2^33", x)
	}
	return uint64(int64(scaled)), nil
}

// DecodeFixed inverts EncodeFixed on (possibly wrapped) ring elements.
func DecodeFixed(v uint64) float64 {
	return float64(int64(v)) / FixedPointScale
}

// CheckSumHeadroom validates that a fold whose summed absolute real
// magnitude is bounded by sumMag cannot wrap the fixed-point ring. sumMag
// is typically (total aggregation weight) × (per-coordinate update bound):
// with per-update L2 clipping at C and FedAvg weights w_i, every coordinate
// of the weighted sum is bounded by C·Σw_i.
func CheckSumHeadroom(sumMag float64) error {
	if math.IsNaN(sumMag) || sumMag < 0 {
		return fmt.Errorf("secagg: invalid sum magnitude bound %v", sumMag)
	}
	if sumMag >= MaxSumMagnitude {
		return fmt.Errorf("secagg: sum magnitude bound %.4g exceeds the fixed-point headroom %.4g (weight × clip too large: the masked sum would wrap in Z_{2^64})",
			sumMag, MaxSumMagnitude)
	}
	return nil
}

// DeriveSecret deterministically derives party id's X25519 secret scalar
// from the run seed. Simulation stand-in for each party generating its own
// key: the whole run stays a pure function of the seed, which is what keeps
// masked runs bit-identical at every parallelism and shard count. X25519
// clamps the scalar during multiplication, so any 32 bytes are a valid
// private key.
func DeriveSecret(seed uint64, id int) [32]byte {
	var buf [35]byte
	copy(buf[:19], "flips-secagg-key-v2")
	binary.LittleEndian.PutUint64(buf[19:27], seed)
	binary.LittleEndian.PutUint64(buf[27:35], uint64(id))
	return sha256.Sum256(buf[:])
}

// PrivateKeyFromSecret wraps a derived secret scalar as an X25519 private
// key.
func PrivateKeyFromSecret(secret *[32]byte) (*ecdh.PrivateKey, error) {
	priv, err := ecdh.X25519().NewPrivateKey(secret[:])
	if err != nil {
		return nil, fmt.Errorf("secagg: secret scalar: %w", err)
	}
	return priv, nil
}

// PairSeed derives the pairwise mask seed for (priv's party, peer) from the
// X25519 shared secret. Symmetric: both ends of the pair derive the same
// seed.
func PairSeed(priv *ecdh.PrivateKey, peer *ecdh.PublicKey) ([32]byte, error) {
	shared, err := priv.ECDH(peer)
	if err != nil {
		return [32]byte{}, fmt.Errorf("secagg: ecdh: %w", err)
	}
	var buf [52]byte
	copy(buf[:20], "flips-secagg-pair-v2")
	copy(buf[20:], shared)
	return sha256.Sum256(buf[:]), nil
}

// MaskChunk is the number of mask-stream words one generator keying covers.
// Coordinate c of a stream lives in chunk c div MaskChunk; callers that split
// one expansion over several ranges cut on multiples of it so no chunk is
// keyed twice.
const MaskChunk = 512

// maskLabel domain-separates the mask chunk key from the package's other
// SHA-256 derivations (DeriveSecret, PairSeed, shamirCoeff).
const maskLabel = "flips-secagg-mask-v3"

// MaskStream is the generator state pair-mask expansion runs through. The
// zero value is ready to use and every expansion rekeys it, so nothing
// carries over from one (seed, tag, range) to the next; it exists as a type
// only because the ChaCha8 state (320 bytes) escapes to the heap when it is
// a local, so each worker keeps one next to its accumulator. Not safe for
// concurrent use.
type MaskStream struct {
	gen rand.ChaCha8
}

// AddPairMask adds (negate=false) or subtracts (negate=true) the pairwise
// mask stream identified by (seed, tag) into acc over the coordinate range
// [lo, hi). acc is indexed absolutely, so callers can expand disjoint ranges
// of the same logical stream concurrently, or the same range into separate
// accumulators that are later summed: the mask word for coordinate c is a
// pure function of (seed, tag, c) — word c mod MaskChunk of the ChaCha8
// keystream (math/rand/v2, C2SP chacha8rand) keyed with
// SHA-256(maskLabel ‖ seed ‖ tag ‖ c div MaskChunk) — independent of range
// boundaries. A range that starts inside a chunk generates and discards the
// chunk's words before lo. tag is the wave/round counter, giving every
// aggregation wave a fresh stream from the same pair seed. Allocation-free.
func (ms *MaskStream) AddPairMask(acc []uint64, seed *[32]byte, tag uint64, lo, hi int, negate bool) {
	if lo < 0 || hi > len(acc) || lo >= hi {
		if lo >= hi {
			return
		}
		panic(fmt.Sprintf("secagg: mask range [%d,%d) outside acc len %d", lo, hi, len(acc)))
	}
	var buf [len(maskLabel) + 48]byte
	n := copy(buf[:], maskLabel)
	n += copy(buf[n:], seed[:])
	binary.LittleEndian.PutUint64(buf[n:], tag)
	for chunk := lo / MaskChunk; chunk <= (hi-1)/MaskChunk; chunk++ {
		binary.LittleEndian.PutUint64(buf[n+8:], uint64(chunk))
		ms.gen.Seed(sha256.Sum256(buf[:]))
		base := chunk * MaskChunk
		first, last := max(base, lo), min(base+MaskChunk, hi)
		for range first - base {
			ms.gen.Uint64()
		}
		a := acc[first:last]
		if negate {
			for w := range a {
				a[w] -= ms.gen.Uint64()
			}
		} else {
			for w := range a {
				a[w] += ms.gen.Uint64()
			}
		}
	}
}

// AddPairMask is MaskStream.AddPairMask through a fresh generator state (one
// allocation), for callers without per-worker scratch.
func AddPairMask(acc []uint64, seed *[32]byte, tag uint64, lo, hi int, negate bool) {
	new(MaskStream).AddPairMask(acc, seed, tag, lo, hi, negate)
}
