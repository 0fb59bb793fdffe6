package fl

import (
	"fmt"

	"flips/internal/tensor"
)

// Checkpoint captures the aggregator-side state needed to resume an FL job
// after an aggregator failure — the §7 fault-tolerance story: "In case of
// aggregator failure, data can be recovered, and aggregation can be resumed
// from the last round."
//
// The checkpoint covers the global model, the server optimizer's moment
// state, progress counters and accounting. Selector state is deliberately
// not included: selection is a logically separate service (§3.4) that is
// reconstructed from the (persisted) clusters on recovery. Every registered
// selector is stateful (random's RNG, FLIPS's pick counts, Oort's
// utilities), so a resumed run reproduces the uninterrupted one exactly
// only when it is handed the selector as it stood at the checkpoint; a
// selector rebuilt from scratch continues the job from its initial state.
//
// A Checkpoint round-trips through encoding/json (the paper suggests
// "fault-tolerant cloud object stores or key-value stores" as the home for
// FL job state; JSON keeps it portable).
type Checkpoint struct {
	// Round is the number of completed rounds; Run resumes at this round.
	Round int `json:"round"`
	// GlobalParams is the global model's flat parameter vector.
	GlobalParams []float64 `json:"globalParams"`
	// OptimizerName guards against resuming with a different algorithm.
	OptimizerName string `json:"optimizerName"`
	// Aggregation guards against resuming under a different execution
	// model ("sync", "buffered", "semisync"). Pre-event-core checkpoints
	// omit it (decoding to ""), which means sync.
	Aggregation string `json:"aggregation,omitempty"`
	// OptimizerMoment / OptimizerSecondMoment carry adaptive-optimizer
	// state (empty for FedAvg).
	OptimizerMoment       []float64 `json:"optimizerMoment,omitempty"`
	OptimizerSecondMoment []float64 `json:"optimizerSecondMoment,omitempty"`
	// LearningRate is the (possibly decayed) local learning rate.
	LearningRate float64 `json:"learningRate"`
	// TotalCommBytes resumes communication accounting.
	TotalCommBytes int64 `json:"totalCommBytes"`
	// PeakAccuracy / RoundsToTarget resume the result metrics.
	PeakAccuracy   float64 `json:"peakAccuracy"`
	RoundsToTarget int     `json:"roundsToTarget"`
	// SimTime / TimeToTarget resume the simulated-clock metrics. Absent in
	// pre-device checkpoints (decoding to 0); Run reconciles TimeToTarget
	// against RoundsToTarget, which records the same event.
	SimTime      float64 `json:"simTime,omitempty"`
	TimeToTarget float64 `json:"timeToTarget,omitempty"`
	// Seed must match the resuming Config's Seed for deterministic
	// continuation.
	Seed uint64 `json:"seed"`
	// Async carries the event-clock state of the asynchronous policies:
	// the simulated clock, the selection-wave RNG cursor, and every
	// in-flight update still traveling through the event queue. Nil for
	// sync checkpoints: a sync round is one selection wave and leaves
	// nothing in flight, so resume reads it as Waves = Round, Clock =
	// SimTime.
	Async *AsyncState `json:"async,omitempty"`
}

// AsyncState is the Checkpoint extension for Buffered/SemiSync jobs. The
// aggregation buffer itself is always empty at a checkpoint boundary
// (checkpoints fire immediately after an aggregation step), so mid-buffer
// progress lives entirely in the in-flight set: parties whose trained
// updates have been dispatched but whose arrival events have not yet been
// consumed.
type AsyncState struct {
	// Waves is the number of selection waves consumed — the root-RNG split
	// cursor. Resume fast-forwards the root stream by this many splits so
	// post-resume waves draw the same streams the uninterrupted run would.
	Waves int `json:"waves"`
	// Clock is the absolute simulated time.
	Clock float64 `json:"clock"`
	// Version is the server model version (count of applied aggregations).
	// It can trail Checkpoint.Round under SemiSync, where an empty window
	// counts as a round but applies no model update.
	Version int `json:"version"`
	// InFlight lists pending updates in event-queue pop order ((arrival,
	// push-seq)); resume re-pushes them in this order, preserving tie-breaks.
	InFlight []PendingUpdate `json:"inFlight,omitempty"`
}

// PendingUpdate serializes one in-flight trained update. Update holds the
// dispatch-time delta x_i − m^(version); Go's JSON float formatting is
// shortest-round-trip, so the vector survives the encode/decode cycle
// bit-exactly.
type PendingUpdate struct {
	Party    int       `json:"party"`
	Update   []float64 `json:"update"`
	Weight   float64   `json:"weight"`
	Version  int       `json:"version"`
	Arrival  float64   `json:"arrival"`
	Duration float64   `json:"duration"`
	MeanLoss float64   `json:"meanLoss"`
	SqLoss   float64   `json:"sqLoss"`
	Steps    int       `json:"steps"`
}

// validateResume checks a checkpoint against the resuming configuration.
func (c *Checkpoint) validateResume(cfg *Config, paramLen int) error {
	if c.Round < 0 || c.Round >= cfg.Rounds {
		return fmt.Errorf("fl: checkpoint round %d out of [0, %d)", c.Round, cfg.Rounds)
	}
	if len(c.GlobalParams) != paramLen {
		return fmt.Errorf("fl: checkpoint has %d params, model has %d", len(c.GlobalParams), paramLen)
	}
	if c.OptimizerName != cfg.Optimizer.Name() {
		return fmt.Errorf("fl: checkpoint optimizer %q, config uses %q", c.OptimizerName, cfg.Optimizer.Name())
	}
	cpAgg := c.Aggregation
	if cpAgg == "" {
		cpAgg = "sync" // pre-event-core checkpoints
	}
	if want := cfg.policy().Name(); cpAgg != want {
		return fmt.Errorf("fl: checkpoint aggregation %q, config uses %q", cpAgg, want)
	}
	if cpAgg != "sync" && c.Async == nil {
		return fmt.Errorf("fl: %s checkpoint is missing event-clock state", cpAgg)
	}
	if as := c.Async; as != nil {
		if as.Waves < 0 || as.Version < 0 {
			return fmt.Errorf("fl: checkpoint event-clock counters negative (waves=%d version=%d)", as.Waves, as.Version)
		}
		for i := range as.InFlight {
			pu := &as.InFlight[i]
			if pu.Party < 0 || pu.Party >= len(cfg.Parties) {
				return fmt.Errorf("fl: checkpoint in-flight update %d names party %d, pool has %d", i, pu.Party, len(cfg.Parties))
			}
			if len(pu.Update) != paramLen {
				return fmt.Errorf("fl: checkpoint in-flight update %d has %d params, model has %d", i, len(pu.Update), paramLen)
			}
		}
	}
	if c.Seed != cfg.Seed {
		return fmt.Errorf("fl: checkpoint seed %d, config seed %d", c.Seed, cfg.Seed)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("fl: checkpoint learning rate %v", c.LearningRate)
	}
	return nil
}

// State exposes the adaptive optimizer's moment vectors for checkpointing.
// Nil slices mean the optimizer has not been applied yet.
func (o *Adaptive) State() (moment, secondMoment tensor.Vec) {
	if o.mt == nil {
		return nil, nil
	}
	return o.mt.Clone(), o.vt.Clone()
}

// SetState restores checkpointed moment vectors.
func (o *Adaptive) SetState(moment, secondMoment tensor.Vec) {
	if moment == nil || secondMoment == nil {
		o.mt, o.vt = nil, nil
		return
	}
	o.mt = moment.Clone()
	o.vt = secondMoment.Clone()
}
