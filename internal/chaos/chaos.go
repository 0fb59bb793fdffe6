// Package chaos is the fault-injection layer of the scenario engine
// (ISSUE 7): correlated regional outages, flash-crowd arrival surges,
// degraded-latency brownouts and faulty-party models (label flips,
// scaled/sign-flipped/byzantine update corruption), all declaratively
// configured and all bit-reproducible.
//
// The Injector implements the engine's fl.FaultInjector seam structurally —
// this package deliberately does not import internal/fl, so the engine's
// own tests can drive a chaos injector without an import cycle.
//
// Determinism contract: every decision is a pure function of (Spec.Seed,
// region or party, outage window or round) computed from its own pre-split
// RNG stream — never from a shared stream advanced call-by-call. The engine
// may therefore evaluate hooks for any subset of parties in any wave
// structure (sync rounds, buffered top-up waves, semisync windows) and at
// any parallelism or shard count, and every draw still lands identically.
//
// Regions are contiguous party-ID bands computed by the same arithmetic as
// the engine's aggregation shards (region = id·Regions/parties): with
// Regions equal to Config.Shards, an outage blacks out whole shards at a
// time, which makes the ShardsTouched locality metric the observable
// footprint of a regional failure.
package chaos

import (
	"fmt"
	"math"

	"flips/internal/dataset"
	"flips/internal/partition"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// FaultModel selects the faulty-party behavior.
type FaultModel int

const (
	// FaultNone disables party faults.
	FaultNone FaultModel = iota
	// FaultLabelFlip flips every faulty party's training labels to a
	// uniformly drawn wrong class at build time (data poisoning).
	FaultLabelFlip
	// FaultScaled multiplies the faulty party's reported delta by
	// FaultScale (boosting attacks).
	FaultScaled
	// FaultSignFlip negates the faulty party's reported delta (gradient
	// ascent on the global objective).
	FaultSignFlip
	// FaultByzantine replaces the faulty party's reported delta with
	// FaultScale-scaled Gaussian noise, freshly drawn per (round, party).
	FaultByzantine
)

// String names the fault model.
func (m FaultModel) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultLabelFlip:
		return "label-flip"
	case FaultScaled:
		return "scaled"
	case FaultSignFlip:
		return "sign-flip"
	case FaultByzantine:
		return "byzantine"
	default:
		return fmt.Sprintf("fault(%d)", int(m))
	}
}

// FaultModelByName parses a fault model name; "" means FaultNone.
func FaultModelByName(name string) (FaultModel, error) {
	switch name {
	case "", "none":
		return FaultNone, nil
	case "label-flip":
		return FaultLabelFlip, nil
	case "scaled":
		return FaultScaled, nil
	case "sign-flip":
		return FaultSignFlip, nil
	case "byzantine":
		return FaultByzantine, nil
	default:
		return FaultNone, fmt.Errorf("chaos: unknown fault model %q (valid: none, label-flip, scaled, sign-flip, byzantine)", name)
	}
}

// Stream labels for the injector's pre-split RNG streams. Each fault process
// owns a label so adding one can never perturb another.
const (
	streamOutage    = 0xC0
	streamFaulty    = 0xFA
	streamByzantine = 0xB7
	streamLabelFlip = 0x1F
)

// Spec declaratively configures one chaos scenario. The zero value is a
// clean fleet: every hook a no-op.
type Spec struct {
	// Seed drives the chaos processes, independent of the job seed so the
	// same weather can be replayed over different training runs.
	Seed uint64 `json:"seed,omitempty"`

	// Regions partitions the fleet into this many contiguous party-ID
	// bands for correlated outages (default 8, clamped to the party
	// count). Matching the engine's Shards knob aligns outages with
	// aggregation shards.
	Regions int `json:"regions,omitempty"`
	// OutageProb is the per-region per-window probability of a total
	// blackout: every party in the region is unreachable for the window.
	// Zero disables outages.
	OutageProb float64 `json:"outageProb,omitempty"`
	// OutageLen is the outage window length in aggregation steps
	// (default 10): outage coins are drawn once per (region, window).
	OutageLen int `json:"outageLen,omitempty"`
	// DegradedProb is the per-region per-window probability of a brownout
	// instead of a blackout: the region stays reachable but every party's
	// round duration is multiplied by DegradedFactor. Drawn after the
	// outage coin from the same stream; both can be configured together.
	DegradedProb float64 `json:"degradedProb,omitempty"`
	// DegradedFactor is the brownout duration multiplier (default 4).
	DegradedFactor float64 `json:"degradedFactor,omitempty"`

	// SurgeEvery triggers a flash crowd every SurgeEvery aggregation steps
	// (0 disables): for SurgeLen steps (default 1) the selection target is
	// multiplied by SurgeFactor (default 2).
	SurgeEvery  int     `json:"surgeEvery,omitempty"`
	SurgeLen    int     `json:"surgeLen,omitempty"`
	SurgeFactor float64 `json:"surgeFactor,omitempty"`

	// FaultFraction is the fraction of parties that misbehave under Fault
	// (0 disables). The faulty set is drawn once at construction from the
	// chaos seed and is independent of everything else.
	FaultFraction float64 `json:"faultFraction,omitempty"`
	// Fault is the faulty parties' behavior model.
	Fault FaultModel `json:"fault,omitempty"`
	// FaultScale scales FaultScaled deltas and FaultByzantine noise
	// (default 10).
	FaultScale float64 `json:"faultScale,omitempty"`
}

// WithDefaults fills zero fields with the package defaults.
func (s Spec) WithDefaults() Spec {
	if s.Regions == 0 {
		s.Regions = 8
	}
	if s.OutageLen == 0 {
		s.OutageLen = 10
	}
	if s.DegradedFactor == 0 {
		s.DegradedFactor = 4
	}
	if s.SurgeLen == 0 {
		s.SurgeLen = 1
	}
	if s.SurgeFactor == 0 {
		s.SurgeFactor = 2
	}
	if s.FaultScale == 0 {
		s.FaultScale = 10
	}
	return s
}

// Validate rejects non-physical scenarios.
func (s Spec) Validate() error {
	d := s.WithDefaults()
	if d.Regions < 1 {
		return fmt.Errorf("chaos: non-positive region count %d", d.Regions)
	}
	if d.OutageProb < 0 || d.OutageProb > 1 {
		return fmt.Errorf("chaos: outage probability %v out of [0,1]", d.OutageProb)
	}
	if d.DegradedProb < 0 || d.DegradedProb > 1 {
		return fmt.Errorf("chaos: degraded probability %v out of [0,1]", d.DegradedProb)
	}
	if d.OutageProb+d.DegradedProb > 1 {
		return fmt.Errorf("chaos: outage %v + degraded %v probabilities exceed 1", d.OutageProb, d.DegradedProb)
	}
	if d.OutageLen < 1 {
		return fmt.Errorf("chaos: non-positive outage window %d", d.OutageLen)
	}
	if d.DegradedFactor <= 0 || math.IsNaN(d.DegradedFactor) || math.IsInf(d.DegradedFactor, 0) {
		return fmt.Errorf("chaos: degraded factor %v is not a positive finite multiplier", d.DegradedFactor)
	}
	if d.SurgeEvery < 0 {
		return fmt.Errorf("chaos: negative surge period %d", d.SurgeEvery)
	}
	if d.SurgeLen < 1 || (d.SurgeEvery > 0 && d.SurgeLen > d.SurgeEvery) {
		return fmt.Errorf("chaos: surge length %d out of [1, period %d]", d.SurgeLen, d.SurgeEvery)
	}
	if d.SurgeFactor <= 0 || math.IsNaN(d.SurgeFactor) || math.IsInf(d.SurgeFactor, 0) {
		return fmt.Errorf("chaos: surge factor %v is not a positive finite multiplier", d.SurgeFactor)
	}
	if d.FaultFraction < 0 || d.FaultFraction > 1 {
		return fmt.Errorf("chaos: fault fraction %v out of [0,1]", d.FaultFraction)
	}
	switch d.Fault {
	case FaultNone, FaultLabelFlip, FaultScaled, FaultSignFlip, FaultByzantine:
	default:
		return fmt.Errorf("chaos: unknown fault model %d", int(d.Fault))
	}
	if d.FaultScale <= 0 || math.IsNaN(d.FaultScale) || math.IsInf(d.FaultScale, 0) {
		return fmt.Errorf("chaos: fault scale %v is not a positive finite value", d.FaultScale)
	}
	return nil
}

// Injector drives one chaos scenario over a fleet of parties. It satisfies
// fl.FaultInjector structurally; see the package comment for the
// determinism contract.
type Injector struct {
	spec    Spec
	parties int
	faulty  []bool
}

// New builds an injector for a fleet of parties, drawing the faulty-party
// set (FaultFraction of the fleet, without replacement) from the chaos
// seed.
func New(spec Spec, parties int) (*Injector, error) {
	if parties < 1 {
		return nil, fmt.Errorf("chaos: non-positive party count %d", parties)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.WithDefaults()
	if spec.Regions > parties {
		spec.Regions = parties
	}
	in := &Injector{spec: spec, parties: parties, faulty: make([]bool, parties)}
	if spec.FaultFraction > 0 && spec.Fault != FaultNone {
		k := int(math.Round(spec.FaultFraction * float64(parties)))
		if k > parties {
			k = parties
		}
		if k > 0 {
			idx := rng.New(spec.Seed).Split(streamFaulty).SampleWithoutReplacement(parties, k)
			for _, id := range idx {
				in.faulty[id] = true
			}
		}
	}
	return in, nil
}

// Region returns the contiguous party-ID band of party id — partition.Blocks,
// as the engine's shards, so region k and aggregation shard k coincide when
// Regions == Shards.
func (in *Injector) Region(id int) int {
	return partition.Blocks{N: in.parties, K: in.spec.Regions}.Of(id)
}

// regionWeather draws party id's region weather for the window containing
// round: blacked out, browned out, or clear. One stream per (region,
// window), two ordered coins — outage first, then degradation — so the two
// processes are correlated the obvious way (a region cannot be both).
func (in *Injector) regionWeather(round, id int) (out, degraded bool) {
	if in.spec.OutageProb <= 0 && in.spec.DegradedProb <= 0 {
		return false, false
	}
	region := in.Region(id)
	window := round / in.spec.OutageLen
	r := rng.New(in.spec.Seed).Split(streamOutage).Split(uint64(region) + 1).Split(uint64(window) + 1)
	u := r.Float64()
	if u < in.spec.OutageProb {
		return true, false
	}
	if u < in.spec.OutageProb+in.spec.DegradedProb {
		return false, true
	}
	return false, false
}

// ForceOffline implements the fl.FaultInjector seam: party id is
// unreachable while its region is blacked out.
func (in *Injector) ForceOffline(round, id int) bool {
	out, _ := in.regionWeather(round, id)
	return out
}

// LatencyFactor implements the fl.FaultInjector seam: DegradedFactor while
// the party's region is browned out, 1 otherwise.
func (in *Injector) LatencyFactor(round, id int) float64 {
	if _, degraded := in.regionWeather(round, id); degraded {
		return in.spec.DegradedFactor
	}
	return 1
}

// CohortTarget implements the fl.FaultInjector seam: during a flash crowd
// (the first SurgeLen steps of every SurgeEvery-step cycle) the selection
// target is multiplied by SurgeFactor. The engine clamps the result.
func (in *Injector) CohortTarget(round, target int) int {
	if in.spec.SurgeEvery <= 0 {
		return target
	}
	if round%in.spec.SurgeEvery < in.spec.SurgeLen {
		t := int(math.Round(float64(target) * in.spec.SurgeFactor))
		if t < 1 {
			t = 1
		}
		return t
	}
	return target
}

// Corrupts implements the fl.FaultInjector seam: true for faulty parties
// under the update-corrupting models. Label flips poison data at build
// time (FlipLabels) and report false.
func (in *Injector) Corrupts(id int) bool {
	switch in.spec.Fault {
	case FaultScaled, FaultSignFlip, FaultByzantine:
		return id >= 0 && id < in.parties && in.faulty[id]
	default:
		return false
	}
}

// CorruptDelta implements the fl.FaultInjector seam, rewriting delta in
// place per the fault model. Byzantine noise comes from a fresh stream per
// (round, party), so it is identical whatever order the engine schedules
// corrupt parties in.
func (in *Injector) CorruptDelta(round, id int, delta tensor.Vec) {
	switch in.spec.Fault {
	case FaultScaled:
		delta.ScaleInPlace(in.spec.FaultScale)
	case FaultSignFlip:
		delta.ScaleInPlace(-1)
	case FaultByzantine:
		r := rng.New(in.spec.Seed).Split(streamByzantine).Split(uint64(round) + 1).Split(uint64(id) + 1)
		r.Normals(delta)
		delta.ScaleInPlace(in.spec.FaultScale)
	}
}

// FlipLabels poisons party id's training data in place under FaultLabelFlip:
// every sample's label moves to a uniformly drawn *other* class, from a
// per-party stream. No-op for non-faulty parties, other fault models, or a
// single-class problem.
func (in *Injector) FlipLabels(id int, samples []dataset.Sample, classes int) {
	if in.spec.Fault != FaultLabelFlip || classes < 2 || id < 0 || id >= in.parties || !in.faulty[id] {
		return
	}
	r := rng.New(in.spec.Seed).Split(streamLabelFlip).Split(uint64(id) + 1)
	for i := range samples {
		samples[i].Y = (samples[i].Y + 1 + r.Intn(classes-1)) % classes
	}
}
