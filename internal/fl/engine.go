package fl

import (
	"context"
	"fmt"
	"math"

	"flips/internal/dataset"
	"flips/internal/fmath"
	"flips/internal/model"
	"flips/internal/rng"
	"flips/internal/secagg"
	"flips/internal/tensor"
)

// Config describes one FL training job.
type Config struct {
	// Parties is the full participant pool S.
	Parties []*Party
	// Test is the aggregator-held global test set (paper §4.4).
	Test []dataset.Sample
	// NumClasses is the label-space size g.
	NumClasses int
	// Factory builds the model architecture all parties agree on.
	Factory model.Factory
	// Optimizer is the server OPTIMIZER applying aggregated deltas.
	Optimizer ServerOptimizer
	// Selector picks the parties for each round.
	Selector Selector
	// Rounds is the synchronization-round budget R.
	Rounds int
	// PartiesPerRound is Nr, the nominal per-round participation.
	PartiesPerRound int
	// SGD configures local training (τ epochs, η, FedProx µ, ...).
	SGD model.SGDConfig
	// LRDecayEvery / LRDecayFactor decay the local learning rate every k
	// rounds, as the paper does ("a decay applied every 20/30 rounds").
	// Zero disables decay; otherwise the factor must lie in (0, 1].
	LRDecayEvery  int
	LRDecayFactor float64
	// StragglerRate drops this fraction of each round's invited parties
	// (paper §5: "We emulate stragglers by dropping 10% or 20% of
	// participants involved in an FL round"). It is the legacy fallback
	// device model: ignored when parties carry Devices.
	StragglerRate float64
	// StragglerBias biases straggler choice toward high-latency parties;
	// 0 drops uniformly, larger values concentrate failures on slow
	// parties (which gives TiFL's latency tiers their signal). Legacy
	// model only.
	StragglerBias float64
	// Deadline is the per-round reporting deadline in simulated seconds.
	// With the device model active (parties carry Devices), invited parties
	// whose simulated round duration — local compute plus model transfer —
	// exceeds the deadline become stragglers, and the round's simulated
	// wall-clock is capped at the deadline. Zero means the server waits for
	// every online party. Requires devices.
	Deadline float64
	// FedDynAlpha enables the (simplified) FedDyn dynamic-regularization
	// local objective when positive.
	FedDynAlpha float64
	// EvalEvery evaluates the global model every k rounds (default 1).
	EvalEvery int
	// OnRound, when non-nil, receives every evaluated round's RoundStats the
	// moment it is appended to the history — the streaming hook the job
	// server uses to push per-round progress to clients while a job runs.
	// It is called on the run's evaluator goroutine, after the snapshot is
	// scored, in round order, never concurrently with itself and never after
	// Run returns. The engine keeps selecting and training meanwhile, but a
	// hook that blocks for long stalls it at the next handoff once
	// evalQueueCap snapshots wait (Phases shows that wait as PhaseHandoff).
	// The PerLabel slice is owned by the history entry and must be copied if
	// retained past the call.
	OnRound func(RoundStats)
	// TargetAccuracy records the first round whose balanced accuracy
	// reaches this value (the paper's rounds-to-target metric).
	TargetAccuracy float64
	// Parallelism bounds the engine's worker pool, whose caller — Run's
	// goroutine — is one of its workers: in-process local training, fold
	// shards and the mask passes. Zero (the default) uses GOMAXPROCS; 1 runs
	// all of it on Run's goroutine, in index order, as does a training wave
	// too small to share (minPoolWave). At every width the run adds one
	// evaluator goroutine, idle unless a model snapshot is queued, which
	// scores the whole test set on one model replica while the engine goes
	// on. Every width produces bit-identical Results: per-party RNG streams
	// are pre-split on Run's goroutine in the sequential order, training
	// results are deposited into an index-addressed slice, aggregation folds
	// them in that same order, and evaluation counts integers over snapshots
	// in step order (see DESIGN.md, "Parallel execution model").
	Parallelism int
	// Shards partitions the party population into this many deterministic
	// contiguous ID ranges, the buckets RoundStats.ShardsTouched counts. It
	// is a label, not a layout: no state is stored and no fold is split by
	// shard, so results are bit-identical at every shard count (see
	// DESIGN.md, "Sharded aggregation"). Zero or 1 keeps a single shard;
	// values above the party count are clamped.
	Shards int
	// Fold selects the aggregation fold combining each cycle's local
	// updates into the global delta: the zero value is the weighted FedAvg
	// mean, FoldTrimmedMean / FoldMedian / FoldKrum are the byzantine-robust
	// alternatives (see robust.go). The robust folds deliberately ignore
	// aggregation weights — sample counts and staleness discounts — since
	// claimed weights are themselves an attack surface.
	Fold FoldConfig
	// Privacy composes the aggregation privacy middleware — mask → clip →
	// noise → fold — around the aggregation seam: Bonawitz-style pairwise
	// masking with Shamir dropout recovery, per-update L2 clipping, and
	// central Laplace noise on the folded delta. The zero value disables
	// every stage and leaves the engine byte-identical to an unconfigured
	// run. See privacy.go and DESIGN.md, "Privacy middleware".
	Privacy PrivacyConfig
	// Faults is the optional chaos seam: a fault injector perturbing
	// availability (regional outages), durations (latency factors),
	// selection targets (flash crowds) and reported update deltas
	// (scaled/sign-flipped/byzantine corruption). Nil runs a clean fleet.
	// See faults.go for the determinism contract.
	Faults FaultInjector
	// Transport, when non-nil, routes each wave's local training through an
	// external shard-worker fleet instead of the in-process worker pool (see
	// transport.go and internal/dist). Everything but training — device
	// simulation, chaos, privacy, folds, server optimization — stays
	// in-process, so transported runs are byte-identical to local ones.
	Transport ShardTransport
	// Aggregation selects the execution model: SyncRounds (nil default,
	// classic synchronization rounds — the paper's setting), Buffered
	// (FedBuff-style asynchronous aggregation every K arrivals) or SemiSync
	// (deadline windows; stragglers carry over instead of being dropped).
	// See DESIGN.md, "Event-driven simulation core".
	Aggregation AggregationPolicy
	// Seed makes the entire run reproducible.
	Seed uint64
	// Phases, when non-nil, accumulates the run's wall-clock time per phase:
	// select, train, fold, settle, observe and the evaluation handoff on the
	// engine goroutine, scoring on the evaluator's (see phases.go). It is a
	// measurement, not a knob: nil costs no clock read and no allocation,
	// and the Result is bit-identical either way.
	Phases *Phases
	// Context, when non-nil, stops the run once it is done: Run checks it
	// before each step and returns its error, wrapped, having joined the
	// evaluator. The rounds OnRound received by then are the first rounds of
	// the run that was not stopped, bit for bit.
	Context context.Context
}

// policy returns the configured aggregation policy, defaulting to SyncRounds.
func (c *Config) policy() AggregationPolicy {
	if c.Aggregation == nil {
		return SyncRounds{}
	}
	return c.Aggregation
}

// FleetShape is all that validation reads of the party pool. A front-end that
// knows the shape its fleet will have — the experiment layer does, from the
// setting alone — can run every configuration check through ValidateShape
// before building a single party.
type FleetShape struct {
	// Parties is the population size N.
	Parties int
	// Devices reports whether the parties carry devices (all of them; a
	// mixed fleet is rejected before it has a shape).
	Devices bool
	// TotalWeight is the fleet's total aggregation weight, the sum of the
	// parties' sample counts.
	TotalWeight float64
}

func (c *Config) validate() error {
	if c.Selector == nil {
		return fmt.Errorf("fl: nil selector")
	}
	shape := FleetShape{Parties: len(c.Parties)}
	withDevice := 0
	for _, p := range c.Parties {
		if p.Device != nil {
			withDevice++
		}
		shape.TotalWeight += float64(p.NumSamples())
	}
	if withDevice > 0 && withDevice < len(c.Parties) {
		return fmt.Errorf("fl: %d of %d parties have devices; attach devices to all parties or none", withDevice, len(c.Parties))
	}
	shape.Devices = withDevice > 0
	return c.ValidateShape(shape)
}

// ValidateShape runs every check Run performs on the configuration, none of
// them needing the data, against a fleet described by its shape instead of
// c.Parties (which it does not read, nor the selector built over them).
func (c *Config) ValidateShape(fleet FleetShape) error {
	if fleet.Parties <= 0 {
		return fmt.Errorf("fl: no parties")
	}
	if c.Factory == nil {
		return fmt.Errorf("fl: nil model factory")
	}
	if c.Optimizer == nil {
		return fmt.Errorf("fl: nil server optimizer")
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("fl: non-positive rounds %d", c.Rounds)
	}
	if c.PartiesPerRound <= 0 || c.PartiesPerRound > fleet.Parties {
		return fmt.Errorf("fl: parties per round %d out of range [1,%d]", c.PartiesPerRound, fleet.Parties)
	}
	if c.StragglerRate < 0 || c.StragglerRate >= 1 {
		return fmt.Errorf("fl: straggler rate %v out of [0,1)", c.StragglerRate)
	}
	if c.NumClasses <= 0 {
		return fmt.Errorf("fl: non-positive class count %d", c.NumClasses)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("fl: negative deadline %v", c.Deadline)
	}
	if c.LRDecayEvery < 0 {
		return fmt.Errorf("fl: negative learning-rate decay period %d", c.LRDecayEvery)
	}
	if c.LRDecayEvery > 0 && !(c.LRDecayFactor > 0 && c.LRDecayFactor <= 1) {
		return fmt.Errorf("fl: learning-rate decay factor %v out of (0,1]", c.LRDecayFactor)
	}
	if c.Shards < 0 {
		return fmt.Errorf("fl: negative shard count %d", c.Shards)
	}
	if err := c.Fold.validate(); err != nil {
		return err
	}
	if err := c.Privacy.validate(); err != nil {
		return err
	}
	if c.Privacy.Mask {
		if c.Fold.Kind != FoldMean {
			return fmt.Errorf("fl: masked aggregation requires the FedAvg mean fold (robust folds need the individual updates masking hides)")
		}
		if c.FedDynAlpha != 0 {
			return fmt.Errorf("fl: masked aggregation does not support FedDyn (the correction rewrites individual updates after masking)")
		}
		// Fixed-point headroom: every masked coordinate encodes
		// weight · delta[c] with |delta[c]| ≤ Clip (and the weight coordinate
		// encodes weight), so the worst-case cohort sum is bounded by the
		// fleet's total weight times max(Clip, 1). Reject configurations whose
		// sums could wrap in Z_{2^64} instead of folding silent garbage.
		if err := secagg.CheckSumHeadroom(fleet.TotalWeight * math.Max(c.Privacy.Clip, 1)); err != nil {
			return fmt.Errorf("fl: masked aggregation overflows the fixed-point ring (total weight %v × clip %v): %w; shrink the cohort weight or the clip bound", fleet.TotalWeight, c.Privacy.Clip, err)
		}
	}
	switch p := c.policy().(type) {
	case SyncRounds:
		if c.Deadline > 0 && !fleet.Devices {
			return fmt.Errorf("fl: deadline %v set but no party has a device", c.Deadline)
		}
	case Buffered:
		if c.Deadline != 0 {
			return fmt.Errorf("fl: buffered aggregation has no round deadline (got %v); use SemiSync for deadline windows", c.Deadline)
		}
		if p.K < 0 {
			return fmt.Errorf("fl: negative buffer size %d", p.K)
		}
		if p.K > c.PartiesPerRound {
			return fmt.Errorf("fl: buffer size %d exceeds the %d-party pipeline; K arrivals can never accumulate from fewer than K selectable parties", p.K, c.PartiesPerRound)
		}
		if err := c.validateAsync("buffered", p.StalenessHalfLife); err != nil {
			return err
		}
	case SemiSync:
		if c.Deadline <= 0 {
			return fmt.Errorf("fl: semisync aggregation requires a positive deadline")
		}
		if err := c.validateAsync("semisync", p.StalenessHalfLife); err != nil {
			return err
		}
	default:
		return fmt.Errorf("fl: unknown aggregation policy %T", p)
	}
	return nil
}

// validateAsync rejects configuration knobs whose semantics are tied to the
// synchronous round loop: the legacy straggler coin-flip (async stragglers
// emerge from arrival timing) and FedDyn's per-round drift correction
// (defined against the model the whole cohort shares, which async cohorts do
// not).
func (c *Config) validateAsync(name string, halfLife float64) error {
	if c.StragglerRate != 0 {
		return fmt.Errorf("fl: %s aggregation does not support the legacy StragglerRate model (stragglers emerge from arrival timing)", name)
	}
	if c.FedDynAlpha != 0 {
		return fmt.Errorf("fl: %s aggregation does not support FedDyn", name)
	}
	if halfLife < 0 {
		return fmt.Errorf("fl: negative staleness half-life %v", halfLife)
	}
	return nil
}

// RoundStats records the observable state after one round.
type RoundStats struct {
	Round     int
	Accuracy  float64   // balanced accuracy on the global test set
	PerLabel  []float64 // per-label recall (NaN for absent labels)
	Invited   int
	Completed int
	CommBytes int64 // model download + update upload bytes this round
	MeanLoss  float64
	// RoundTime is this round's simulated wall-clock seconds: the slowest
	// completing party, capped at Deadline when any invited party missed it.
	RoundTime float64
	// SimTime is the cumulative simulated seconds through this round,
	// including unevaluated rounds since the previous entry.
	SimTime float64
	// ShardsTouched counts the distinct shards (Config.Shards) this cycle's
	// completed parties fell into — the streaming locality metric. With a single shard (Shards <= 1) it is 1 whenever
	// anything completed and 0 otherwise.
	ShardsTouched int
	// Rejected counts this cycle's non-finite (NaN/Inf) local updates
	// dropped at the fold boundary instead of being folded into the global
	// model. The parties still count as Completed — they trained and
	// uploaded — but their poison never reaches the server optimizer.
	Rejected int
	// MaskAborted reports that a secure-aggregation wave aborted this cycle:
	// dropouts left masks in the sum but the survivors fell below the Shamir
	// reconstruction threshold, so the engine applied nothing from that wave
	// (the model is untouched by it) and the fleet retries in the next
	// cycle. Always false when Privacy.Mask is off.
	MaskAborted bool
}

// Result summarizes a finished FL job.
type Result struct {
	// History has one entry per evaluated round.
	History []RoundStats
	// PeakAccuracy is the highest balanced accuracy attained.
	PeakAccuracy float64
	// RoundsToTarget is the 1-based round at which TargetAccuracy was first
	// reached, or -1 if never (reported as ">R" in the paper's tables).
	RoundsToTarget int
	// SimTime is the job's total simulated wall-clock seconds: the sum of
	// per-round times from the device model, or from the legacy
	// latency-proxy durations when no devices are attached.
	SimTime float64
	// TimeToTarget is the simulated seconds at which TargetAccuracy was
	// first reached, or -1 if never — the time-to-accuracy metric device
	// heterogeneity makes meaningful (a strategy can win on rounds but lose
	// on wall-clock when its rounds wait on slow parties).
	TimeToTarget float64
	// TotalCommBytes accumulates all model transfer volume.
	TotalCommBytes int64
	// FinalParams is the final global model parameter vector.
	FinalParams tensor.Vec
}

// Run executes the FL job and returns its result. The run is fully
// deterministic given Config.Seed.
//
// Run validates the configuration, builds the discrete-event simulation core
// (events.go), starts the run's evaluator goroutine (evaluator.go) and runs
// the engine's one aggregation loop: per step, the learning-rate decay, one
// cycle of the aggregation policy — SyncRounds (default), Buffered or
// SemiSync — and the epilogue every cycle shares, in this order: the result
// clock takes the cycle's simulated clock, the cycle's bytes are counted, the
// cycle's mean loss is taken over its reports, the selector observes the
// cycle's feedback, a snapshot of the model is handed to the evaluator on the
// evaluation cadence, and the per-cycle state is reset. Run joins the
// evaluator before it returns, on every path — its only barrier: the Result
// is complete, no OnRound call happens after Run returns, and a panic during
// evaluation is re-raised on Run's caller goroutine. A done Config.Context
// ends the loop before its next step.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 1
	}
	policy := cfg.policy()
	c := newEventCore(&cfg)
	c.eval.start(c.global)
	defer c.eval.stop()
	for step := 0; step < cfg.Rounds; step++ {
		if cfg.Context != nil && cfg.Context.Err() != nil {
			return nil, fmt.Errorf("fl: run stopped before round %d: %w", step+1, cfg.Context.Err())
		}
		c.decayLR(step)
		if err := policy.cycle(c, step); err != nil {
			return nil, err
		}
		c.res.SimTime = c.clock
		c.res.TotalCommBytes += c.round.CommBytes
		if n := len(c.fb.Completed); n > 0 {
			var lossSum float64
			for _, r := range c.fb.Completed {
				lossSum += r.MeanLoss
			}
			c.round.MeanLoss = lossSum / float64(n)
		}
		c.fb.Round = step
		t0 := cfg.Phases.start()
		cfg.Selector.Observe(c.fb)
		cfg.Phases.stop(PhaseObserve, t0)
		c.maybeEval(step)
		c.resetCycle()
	}
	t0 := cfg.Phases.start()
	c.eval.stop()
	cfg.Phases.stop(PhaseHandoff, t0)
	c.res.FinalParams = c.globalParams
	return c.res, nil
}

// pickStragglers drops StragglerRate of the invited parties, biased toward
// high-latency parties when StragglerBias > 0, appending into the
// caller-provided buffer. When the remaining weight mass is zero (for
// example an all-zero-latency pool, where latency^bias vanishes everywhere),
// the weighted path falls back to a uniform draw over the not-yet-dropped
// parties instead of leaning on Categorical's zero-mass behavior, which
// samples with replacement and would return duplicate stragglers.
func pickStragglers(cfg Config, invited []int, r *rng.Source, out []int) []int {
	k := int(math.Round(cfg.StragglerRate * float64(len(invited))))
	if k <= 0 {
		return out
	}
	if k >= len(invited) {
		k = len(invited) - 1 // never drop everyone
	}
	if cfg.StragglerBias <= 0 {
		idx := r.SampleWithoutReplacement(len(invited), k)
		for _, j := range idx {
			out = append(out, invited[j])
		}
		return out
	}
	// Weighted sampling without replacement by latency^bias. Drawn parties
	// have their weight zeroed, so the remaining mass shrinks each pick. The
	// mass test below mirrors Categorical's internal positive-weight sum
	// exactly, so the weighted path consumes the same RNG stream it always
	// has; only the degenerate zero-mass case takes the uniform branch.
	weights := make([]float64, len(invited))
	chosen := make([]bool, len(invited))
	for i, id := range invited {
		weights[i] = fmath.Pow(cfg.Parties[id].Latency, cfg.StragglerBias)
	}
	for picks := 0; picks < k; picks++ {
		var mass float64
		for _, w := range weights {
			if w > 0 {
				mass += w
			}
		}
		var j int
		if mass > 0 {
			j = r.Categorical(weights)
			if chosen[j] {
				// Categorical's floating-point fallback (u rounding up to
				// exactly the total mass) returns the last index regardless
				// of weight, which can be an already-drawn slot. Probability
				// ~2^-53 per draw, but the without-replacement invariant
				// must hold unconditionally: reroute to the first undrawn
				// party.
				for j = 0; chosen[j]; j++ {
				}
			}
		} else {
			// Zero mass left: draw uniformly among undrawn parties.
			nth := r.Intn(len(invited) - picks)
			for j = 0; ; j++ {
				if !chosen[j] {
					if nth == 0 {
						break
					}
					nth--
				}
			}
		}
		out = append(out, invited[j])
		chosen[j] = true
		weights[j] = 0
	}
	return out
}

// applyFedDyn applies the simplified FedDyn gradient-correction: each party
// keeps state h_i updated as h_i ← h_i − α(x_i − m); the reported model is
// x_i − h_i/α, which debiases persistent client drift. (Acar et al. 2021,
// simplified to the parameter-space form.) The corrected model is written to
// corrected, which first holds the drift x_i − m.
func applyFedDyn(state []tensor.Vec, id int, params, global tensor.Vec, alpha float64, corrected tensor.Vec) tensor.Vec {
	h := state[id]
	if h == nil {
		h = tensor.NewVec(len(params))
		state[id] = h
	}
	copy(corrected, params)
	corrected.SubInPlace(global)
	h.Axpy(-alpha, corrected)
	copy(corrected, params)
	corrected.Axpy(-1/alpha, h)
	// Blend: the corrected model is used for aggregation but bounded to
	// avoid runaway corrections in early rounds.
	for i := range corrected {
		if math.IsNaN(corrected[i]) || math.IsInf(corrected[i], 0) {
			return params
		}
	}
	return corrected
}
