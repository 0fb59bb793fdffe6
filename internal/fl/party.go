// Package fl implements the federated-learning substrate FLIPS plugs into:
// parties with local data, an aggregator that orchestrates synchronization
// rounds, weighted model aggregation, pluggable server optimizers (FedAvg,
// FedYogi, FedAdam, FedAdagrad), FedProx/FedDyn local objectives, straggler
// emulation, communication-cost accounting and balanced-accuracy evaluation
// — everything §2 of the paper describes as the FL job substrate.
package fl

import (
	"math"

	"flips/internal/dataset"
	"flips/internal/device"
	"flips/internal/partition"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// Party is one FL participant: a private local dataset plus a platform
// profile used for straggler emulation.
type Party struct {
	// ID is the party's index in [0, N).
	ID int
	// Data is the party's private training set.
	Data []dataset.Sample
	// LabelDist is the party's label-count vector ld_i (paper §3.1).
	LabelDist tensor.Vec
	// Latency is a unitless per-round training-time multiplier drawn from a
	// lognormal platform profile. Slow parties straggle more often and land
	// in slow TiFL tiers. It drives the legacy straggler model only; when
	// Device is set the engine simulates durations from the device instead.
	Latency float64
	// Device, when non-nil, is the party's simulated platform (compute
	// speed, bandwidth, availability). Attaching devices to a pool switches
	// the engine from the legacy StragglerRate coin-flip to simulated round
	// wall-clock: parties that are offline or miss Config.Deadline straggle.
	// Devices must be attached to all parties of a pool or none.
	Device *device.Device
}

// NumSamples returns the size of the party's local dataset (the FedAvg
// aggregation weight n_i).
func (p *Party) NumSamples() int { return len(p.Data) }

// BuildParties materializes the party population from a dataset partition.
// Latencies are lognormal(0, sigma) so a heavy tail of slow parties exists,
// matching the paper's platform-heterogeneity setting; sigma=0 gives a
// homogeneous fleet.
func BuildParties(ds *dataset.Dataset, part *partition.Partition, latencySigma float64, r *rng.Source) []*Party {
	parties := PartyData(ds, part, 0, part.NumParties())
	ProfileParties(parties, ds.NumClasses(), latencySigma, r)
	return parties
}

// PartyData materializes parties [lo, hi) of a partition with only what local
// training reads of a party: its ID and its samples (party lo+i at index i).
// It is all of a party a shard worker needs.
func PartyData(ds *dataset.Dataset, part *partition.Partition, lo, hi int) []*Party {
	parties := make([]*Party, hi-lo)
	for k := range parties {
		indices := part.Parties[lo+k]
		data := make([]dataset.Sample, len(indices))
		for j, idx := range indices {
			data[j] = ds.Samples[idx]
		}
		parties[k] = &Party{ID: lo + k, Data: data}
	}
	return parties
}

// ProfileParties completes PartyData(ds, part, 0, n) into the population the
// aggregator works with: each party's label-count vector ld_i (paper §3.1),
// counted over the samples it was dealt, and its latency, one draw per party
// in ID order.
func ProfileParties(parties []*Party, numClasses int, latencySigma float64, r *rng.Source) {
	for _, p := range parties {
		p.Latency = 1.0
		if latencySigma > 0 {
			p.Latency = math.Exp(latencySigma * r.NormFloat64())
		}
		p.LabelDist = tensor.NewVec(numClasses)
		for _, s := range p.Data {
			p.LabelDist[s.Y]++
		}
	}
}

// AttachDevices draws one device per party from cfg and attaches it,
// switching the engine's straggler emulation to the simulated device model.
// Each party's device comes from its own pre-split child stream
// (r.Split(ID+1)), so the fleet is bit-reproducible and independent of
// construction order — the same contract the engine's per-party training
// streams follow.
func AttachDevices(parties []*Party, cfg device.Config, r *rng.Source) {
	for _, p := range parties {
		p.Device = device.NewForParty(cfg, p.ID, r.Split(uint64(p.ID)+1))
	}
}

// NormalizedLabelDists returns per-party label proportion vectors — the
// clustering input FLIPS submits to the TEE.
func NormalizedLabelDists(parties []*Party) []tensor.Vec {
	out := make([]tensor.Vec, len(parties))
	for i, p := range parties {
		out[i] = p.LabelDist.Clone().Normalize()
	}
	return out
}
