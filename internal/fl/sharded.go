package fl

import (
	"flips/internal/parallel"
	"flips/internal/tensor"
)

// Sharded aggregation (ISSUE 5). A fleet-scale party population makes every
// dense O(parties) structure in the engine a liability: a 100k-party run must
// not allocate, clear or scan party-count-sized slices per aggregation cycle
// when only a few hundred parties are ever invited. The Shards knob
// partitions the population into deterministic contiguous ID ranges and makes
// the engine's hot per-party state shard-local and lazily allocated, so a run
// only ever materializes storage for the shards selection actually touches.
//
// The byte-exactness contract (see DESIGN.md, "Sharded aggregation"):
// sharding must not move a single float64 bit at any shard count. Two kinds
// of per-shard accumulator make that possible:
//
//   - Order-independent state (dedupe bitmaps, durations, straggler flags,
//     in-flight reservations, integer counters) is partitioned by party
//     shard. Reads and writes are pure index translation, and integer merges
//     in fixed shard order are exact, so the layout is unobservable.
//   - The floating-point delta fold is NOT partitioned by party: summing
//     per-party-shard partial vectors would change the addition tree and
//     with it the result bits. Instead the fold shards the *parameter* axis
//     into contiguous ranges — every range replays the full update sequence
//     in selection order over its own indices, so the per-index operation
//     order is exactly the sequential fold's, at any shard count and any
//     parallelism. "Merging in fixed shard order" is concatenation of
//     disjoint ranges, which cannot reorder anything.

// shardSpace maps dense party IDs [0, parties) onto contiguous shards.
// Shard s owns IDs [ceil(s·N/S), ceil((s+1)·N/S)) — balanced within one, and
// a pure function of (parties, shards), so the assignment is identical on
// every run, machine and parallelism.
type shardSpace struct {
	parties int
	shards  int
}

// newShardSpace builds the shard mapping. shards is clamped to [1, parties]
// so degenerate knob values (0, negative, more shards than parties) behave
// like the nearest meaningful configuration.
func newShardSpace(parties, shards int) shardSpace {
	if shards < 1 {
		shards = 1
	}
	if parties > 0 && shards > parties {
		shards = parties
	}
	return shardSpace{parties: parties, shards: shards}
}

// count returns the number of shards.
func (s shardSpace) count() int { return s.shards }

// shardOf returns the shard owning party id.
func (s shardSpace) shardOf(id int) int {
	return id * s.shards / s.parties
}

// bounds returns the half-open ID range [lo, hi) owned by shard sh.
func (s shardSpace) bounds(sh int) (lo, hi int) {
	lo = (sh*s.parties + s.shards - 1) / s.shards
	hi = ((sh+1)*s.parties + s.shards - 1) / s.shards
	if hi > s.parties {
		hi = s.parties
	}
	return lo, hi
}

// shardedSlice is dense party-ID-indexed storage split into shard-local
// blocks that are allocated on first write. A fleet-scale run whose selector
// concentrates on a handful of shards allocates only those blocks; the
// untouched majority of the fleet costs one nil pointer per shard. Reads of
// never-written shards return the zero value without allocating, so clearing
// loops (which only revisit previously written IDs) never fault blocks in.
type shardedSlice[T any] struct {
	space  shardSpace
	blocks [][]T
}

func newShardedSlice[T any](space shardSpace) shardedSlice[T] {
	return shardedSlice[T]{space: space, blocks: make([][]T, space.count())}
}

// get returns the value at id, or the zero T if id's shard was never written.
func (v *shardedSlice[T]) get(id int) T {
	sh := v.space.shardOf(id)
	b := v.blocks[sh]
	if b == nil {
		var zero T
		return zero
	}
	lo, _ := v.space.bounds(sh)
	return b[id-lo]
}

// set writes the value at id, allocating id's shard block on first touch.
func (v *shardedSlice[T]) set(id int, x T) {
	sh := v.space.shardOf(id)
	lo, hi := v.space.bounds(sh)
	if v.blocks[sh] == nil {
		v.blocks[sh] = make([]T, hi-lo)
	}
	v.blocks[sh][id-lo] = x
}

// touched reports how many shard blocks have been materialized — the
// engine's resident-state footprint in units of shards.
func (v *shardedSlice[T]) touched() int {
	n := 0
	for _, b := range v.blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// minFoldRange is the smallest parameter range worth a fold worker: below
// this, goroutine dispatch costs more than the arithmetic it parallelizes.
// Clamping the effective range count is invisible to results — any
// contiguous range partition is bit-exact — so this is purely a throughput
// guard for small models under large shard counts.
const minFoldRange = 4096

// foldShards returns the effective fold range count for a dim-parameter
// model under the configured shard count.
func foldShards(shards, dim int) int {
	if cap := dim / minFoldRange; shards > cap {
		shards = cap
	}
	if shards < 1 {
		return 1
	}
	return shards
}

// foldRange is one contiguous parameter range of the sharded delta fold.
type foldRange struct{ lo, hi int }

// paramRanges splits [0, n) into at most shards contiguous ranges.
func paramRanges(n, shards int) []foldRange {
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	if shards == 0 {
		return nil
	}
	out := make([]foldRange, 0, shards)
	for s := 0; s < shards; s++ {
		lo := s * n / shards
		hi := (s + 1) * n / shards
		if lo < hi {
			out = append(out, foldRange{lo: lo, hi: hi})
		}
	}
	return out
}

// WeightedAverageDeltaShardedInto is WeightedAverageDeltaInto (either
// semantics: global nil means pre-computed deltas) with the parameter axis
// partitioned into shards contiguous ranges executed on pool. Each range
// replays the complete update sequence in order over its own indices, so
// every parameter's operation sequence — and therefore every result bit — is
// identical to the sequential fold at any shard count and pool width.
// shards <= 1 takes the sequential path directly.
func WeightedAverageDeltaShardedInto(dst, global tensor.Vec, updates []tensor.Vec, weights []float64, pool *parallel.Pool, shards int) {
	if shards <= 1 {
		WeightedAverageDeltaInto(dst, global, updates, weights)
		return
	}
	total := totalWeight(weights)
	ranges := paramRanges(len(dst), shards)
	pool.ForEach(len(ranges), func(ri int) {
		meanDeltaRange(dst, global, updates, weights, total, ranges[ri].lo, ranges[ri].hi)
	})
}
