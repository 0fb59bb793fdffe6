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

	"flips/internal/wire"
)

// Version is the dist protocol's wire version byte. It is distinct from the
// TEE protocol's version so a worker dialed at the wrong port fails with an
// explicit version error instead of undefined framing. Version 3 dropped the
// per-round stats broadcast (frame types 7 and 8 of version 2).
const Version byte = 3

// Frame types. Every coordinator→worker frame draws exactly one response
// frame (strict request/response), so each side always knows whether it is
// reading or writing; ftError may answer any request.
const (
	ftHello         byte = 1  // worker→coord: registration
	ftHelloAck      byte = 2  // coord→worker: assigned worker ID
	ftAssignShards  byte = 3  // coord→worker: job spec + contiguous party range
	ftAssignAck     byte = 4  // worker→coord
	ftDispatchWave  byte = 5  // coord→worker: one training wave
	ftPartialFold   byte = 6  // worker→coord: the wave's local results
	ftCheckpoint    byte = 7  // coord→worker: one chunk of global parameters
	ftCheckpointAck byte = 8  // worker→coord
	ftShutdown      byte = 9  // coord→worker: drain and exit
	ftShutdownAck   byte = 10 // worker→coord
	ftError         byte = 11 // either: string payload answering a request
)

// checkpointChunkFloats bounds one parameter-sync chunk. 64Ki float64s is
// 512 KiB on the wire — large enough to amortize frames, small enough that
// neither side ever stages a full fleet-scale vector in one buffer beyond
// the O(params) it already owns.
const checkpointChunkFloats = 64 * 1024

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
// pair for a given parameter dimension: the fold reply is the larger side
// (per party: numSamples, steps, two losses, the full parameter vector).
// Waves beyond the bound are split into consecutive sub-dispatches — the
// results are deposited index-addressed either way, so splitting cannot
// reorder a single float operation.
func maxWaveParties(paramDim int) int {
	perParty := 4 + 4 + 8 + 8 + 8*paramDim // fold side
	if d := 4 + 4*8; d > perParty {
		perParty = d // dispatch side: id + rng state
	}
	n := (wire.MaxFrame - 256) / perParty
	if n < 1 {
		n = 1
	}
	return n
}
