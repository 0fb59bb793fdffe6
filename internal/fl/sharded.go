package fl

import (
	"flips/internal/parallel"
	"flips/internal/partition"
	"flips/internal/tensor"
)

// Shards is a label, not a layout (see DESIGN.md, "Sharded aggregation").
// Config.Shards partitions the party population into deterministic
// contiguous ID ranges, and the engine reports how many of them each cycle's
// completed parties fell into (RoundStats.ShardsTouched). Nothing is stored
// or folded by shard: per-party state is dense, indexed by party id, and the
// delta fold runs in one pass over the parameter vector, so no shard count
// can move a result bit.

// newShardSpace maps dense party IDs [0, parties) onto contiguous shards,
// partition.Blocks' rule: a pure function of (parties, shards), so the
// assignment is identical on every run, machine and parallelism. shards is
// clamped to [1, parties] so degenerate knob values (0, negative, more
// shards than parties) behave like the nearest meaningful configuration.
func newShardSpace(parties, shards int) partition.Blocks {
	if shards < 1 {
		shards = 1
	}
	if parties > 0 && shards > parties {
		shards = parties
	}
	return partition.Blocks{N: parties, K: shards}
}

// partySet is one flag per party, packed 64 to a word: the engine's dedupe
// and reservation marks for a fleet cost N/8 bytes each.
type partySet []uint64

func newPartySet(parties int) partySet { return make(partySet, (parties+63)/64) }

func (s partySet) has(id int) bool { return s[id>>6]&(1<<(uint(id)&63)) != 0 }

func (s partySet) add(id int) { s[id>>6] |= 1 << (uint(id) & 63) }

func (s partySet) remove(id int) { s[id>>6] &^= 1 << (uint(id) & 63) }

// WeightedAverageDeltaShardedInto computes the FedAvg aggregation rule
// x^(r) = (1/N) Σ n_i x_i over the completed updates, as the delta from the
// current global parameters, into the caller-provided dst — the engine reuses
// one buffer across rounds instead of allocating a parameter-sized vector per
// round. weights are the per-update n_i; they are renormalized over whatever
// subset completed, so dropped stragglers simply vanish from the average
// (paper Algorithm 1 line 43).
//
// global, when non-nil, is subtracted from each update per coordinate (sync
// semantics: updates are raw trained parameters). nil means updates are
// already deltas x_i − m^(v_i), each taken against the model its party
// downloaded (async semantics: by fold time the global model has moved on, so
// subtracting the current one would be wrong): dst[i] = Σ_j (w_j/Σw) δ_j[i].
// No updates, or none with weight, leave dst zero.
//
// The fold is one pass on the caller's goroutine, update-major and
// coordinate-minor. pool and shards are unused; they remain only because
// benchmark/probes.go calls this signature and that directory is frozen.
func WeightedAverageDeltaShardedInto(dst, global tensor.Vec, updates []tensor.Vec, weights []float64, pool *parallel.Pool, shards int) {
	clear(dst)
	var total float64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return
	}
	for j, u := range updates {
		w := weights[j] / total
		u = u[:len(dst)]
		if global == nil {
			for i := range dst {
				dst[i] += float64(w * u[i])
			}
			continue
		}
		g := global[:len(dst)]
		for i := range dst {
			dst[i] += float64(w * (u[i] - g[i]))
		}
	}
}
