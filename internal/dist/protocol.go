// Package dist implements distributed aggregation over the engine's shard
// seam: shard workers run as separate processes speaking a length-prefixed
// binary protocol (internal/wire), while flipsd's coordinator keeps the
// entire discrete-event engine — selection, device simulation, chaos,
// privacy, folds, server optimization — in one process and routes only the
// wave training (fl.ShardTransport) across the wire.
//
// The determinism argument mirrors the in-process sharded engine's: local
// training is a pure function of (global parameters, SGD config, party
// data, per-party RNG stream), the coordinator pre-splits every stream in
// the canonical sequential order and ships the serialized states, workers
// deposit results index-addressed in dispatch order, and the coordinator
// folds them in exactly the order the in-process engine would have. No
// float operation is reassociated anywhere, so multi-process runs are
// byte-identical to in-process at every worker count.
package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"flips/internal/wire"
)

// Version is the dist protocol's wire version byte. It is distinct from the
// TEE protocol's version so a worker dialed at the wrong port fails with an
// explicit version error instead of undefined framing. Version 3 dropped the
// per-round stats broadcast; version 4 dropped the chunked checkpoint frames
// (types 7 and 8): the global parameters ride the dispatch frame.
const Version byte = 4

// Frame types. Every coordinator→worker frame draws exactly one response
// frame (strict request/response), so each side always knows whether it is
// reading or writing; ftError may answer any request.
const (
	ftHello        byte = 1  // worker→coord: registration
	ftHelloAck     byte = 2  // coord→worker: assigned worker ID
	ftAssignShards byte = 3  // coord→worker: job spec + contiguous party range
	ftAssignAck    byte = 4  // worker→coord
	ftDispatchWave byte = 5  // coord→worker: one training wave (+ the global parameters when the worker is behind)
	ftPartialFold  byte = 6  // worker→coord: the wave's local results
	ftShutdown     byte = 9  // coord→worker: drain and exit
	ftShutdownAck  byte = 10 // worker→coord
	ftError        byte = 11 // either: string payload answering a request
)

// Fixed sizes of the two wave frames, shared by the encoders, the decoders
// and maxWaveParties.
const (
	// dispatchHeadLen: job, wave, version, the SGD block, paramCount and n.
	dispatchHeadLen = 8 + 8 + 8 + (8 + 4 + 4 + 8 + 8) + 4 + 4
	// dispatchPartyLen: party ID and its serialized RNG state.
	dispatchPartyLen = 4 + 4*8
	// foldHeadLen: job, wave, n, dim.
	foldHeadLen = 8 + 8 + 4 + 4
	// foldPartyHeadLen: numSamples, steps, meanLoss, sqLossMean — followed by
	// the party's dim trained parameters.
	foldPartyHeadLen = 4 + 4 + 8 + 8
)

// buf is an append-style binary encoder over a reusable byte slice. All
// payload integers are big-endian, matching the frame header; floats travel
// as IEEE-754 bit patterns so values round-trip bit-exactly.
type buf struct{ b []byte }

func (e *buf) reset()        { e.b = e.b[:0] }
func (e *buf) bytes() []byte { return e.b }
func (e *buf) u32(v uint32)  { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *buf) u64(v uint64)  { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *buf) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *buf) raw(p []byte)  { e.b = append(e.b, p...) }
func (e *buf) str(s string)  { e.u32(uint32(len(s))); e.b = append(e.b, s...) }

// f64s appends a whole vector: one growth, then plain word stores.
func (e *buf) f64s(vs []float64) { putF64s(e.grow(8*len(vs)), vs) }

// grow extends the buffer by n bytes and returns the new tail.
func (e *buf) grow(n int) []byte {
	off := len(e.b)
	e.b = slices.Grow(e.b, n)[:off+n]
	return e.b[off:]
}

// putF64s writes vs into dst (at least 8·len(vs) bytes) as consecutive
// big-endian IEEE-754 words — the bytes len(vs) f64 calls would append.
func putF64s(dst []byte, vs []float64) {
	dst = dst[:8*len(vs)]
	for i, v := range vs {
		binary.BigEndian.PutUint64(dst[8*i:8*i+8], math.Float64bits(v))
	}
}

// reader is the matching decoder. The first malformed read poisons it; the
// caller checks err once after decoding a whole payload instead of after
// every field.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("dist: truncated payload at offset %d of %d", r.off, len(r.b))
	}
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// f64s fills dst from the next 8·len(dst) bytes, bounds-checked once. A short
// payload poisons the reader and leaves dst unchanged.
func (r *reader) f64s(dst []float64) {
	src := r.bytes(8 * len(dst))
	if src == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(src[8*i : 8*i+8]))
	}
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) str() string {
	n := int(r.u32())
	return string(r.bytes(n))
}

// done verifies the payload was consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("dist: %d trailing payload bytes", len(r.b)-r.off)
	}
	return nil
}

// errFrame decodes a peer ftError payload into an error.
func errFrame(payload []byte) error {
	r := reader{b: payload}
	msg := r.str()
	if r.done() != nil {
		msg = string(payload)
	}
	return fmt.Errorf("dist: peer error: %s", msg)
}

// expect asserts a response frame type, turning ftError payloads and type
// mismatches into errors.
func expect(want, got byte, payload []byte) error {
	if got == want {
		return nil
	}
	if got == ftError {
		return errFrame(payload)
	}
	return fmt.Errorf("dist: frame type %d, want %d", got, want)
}

// maxWaveParties bounds how many parties fit one dispatch/partial-fold frame
// pair for a given parameter dimension. The fold reply carries the full
// trained vector per party; the dispatch carries the global vector once (on
// the frames that sync a worker) plus an ID and RNG state per party. Waves
// beyond the bound are split into consecutive sub-dispatches — the results
// are deposited index-addressed either way, so splitting cannot reorder a
// single float operation. A vector too large for one frame yields 1 and the
// codec refuses the frame: such a model could not come back in a fold either.
func maxWaveParties(paramDim int) int {
	n := (wire.MaxFrame - foldHeadLen) / (foldPartyHeadLen + 8*paramDim)
	if d := (wire.MaxFrame - dispatchHeadLen - 8*paramDim) / dispatchPartyLen; d < n {
		n = d
	}
	if n < 1 {
		n = 1
	}
	return n
}
