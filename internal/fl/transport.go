package fl

import (
	"flips/internal/model"
	"flips/internal/tensor"
)

// TrainDispatch describes one wave of local training handed to a
// ShardTransport. Everything a worker needs to reproduce the in-process
// training byte-for-byte is explicit in the dispatch: the party IDs in
// dispatch order, each party's pre-split RNG stream state (split by the
// coordinator in the canonical sequential order, exactly as trainBatch does
// in-process), the current global parameter vector, its version, and the
// effective SGD configuration including any learning-rate decay applied so
// far.
type TrainDispatch struct {
	// IDs lists the wave's parties in dispatch order; results are deposited
	// index-addressed in this order.
	IDs []int
	// RngStates carries each party's xoshiro256** stream state, parallel to
	// IDs. Workers reconstruct with rng.FromState and draw exactly the
	// sequence the in-process engine would have.
	RngStates [][4]uint64
	// Params is the current global parameter vector. The slice aliases the
	// engine's live vector: transports must not mutate it and must finish
	// reading it before returning.
	Params tensor.Vec
	// Version counts applied aggregations; it only changes when Params
	// changed, so transports can skip re-sending an unchanged vector.
	Version int
	// SGD is the effective local-training configuration for this wave,
	// including the engine's learning-rate decay.
	SGD model.SGDConfig
}

// ShardTransport routes a wave of local training somewhere other than the
// in-process worker pool — across a process boundary to shard workers, in
// the distributed engine. Only training crosses the seam: device simulation,
// chaos perturbation, privacy masking, folds and server optimization all
// remain coordinator-side, which is what keeps multi-process runs
// byte-identical to in-process ones (the fold consumes the same values in
// the same order regardless of where training ran).
//
// Contract: TrainWave deposits one result per dispatched party into out
// (same order as d.IDs, len(out) == len(d.IDs)). Each out[i].Params arrives
// sized to the parameter dimension and owned by the engine: TrainWave fills
// it in place and must not replace it or keep a reference to it. The engine
// mutates the vector when building deltas, keeps it past the wave (async
// updates queue it until arrival) and recycles it once the update's fold is
// observed (DESIGN.md, "Update-vector lifetime"). TrainWave must be
// deterministic: the same dispatch produces bit-identical results, because
// workers run the same pure training kernel on the same party data,
// parameters and RNG streams.
type ShardTransport interface {
	TrainWave(d TrainDispatch, out []model.LocalResult) error
}
