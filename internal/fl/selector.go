package fl

import "flips/internal/tensor"

// Selector chooses which parties participate in each FL round. It is the
// extension point FLIPS and all baseline strategies implement.
type Selector interface {
	// Name identifies the strategy in reports ("flips", "random", ...).
	Name() string
	// Select returns the party IDs invited to round r. target is the
	// nominal parties-per-round Nr; strategies with over-provisioning
	// (FLIPS straggler handling, Oort's 1.3x) may return more than target.
	// Returned IDs must be unique.
	Select(round, target int) []int
	// Observe delivers the round's outcome so adaptive strategies (Oort,
	// TiFL, GradClus, FLIPS straggler tracking) can update their state.
	Observe(fb RoundFeedback)
}

// UpdateConsumer is an optional Selector capability. The engine materializes
// PartyReport.Update delta vectors — an O(parties × params) allocation per
// round — only for selectors that implement it and return true (gradient
// clustering does; the loss/latency-driven strategies never read Update).
// The engine asks once, when the run starts: the answer must be a constant
// of the selector, as every in-repo implementation's is. Selectors without
// the method receive nil updates.
type UpdateConsumer interface {
	NeedsUpdates() bool
}

// RoundFeedback summarizes one completed round for adaptive selectors.
//
// Ownership: the feedback's slices are engine-owned scratch, reused across
// rounds — they are valid only for the duration of the Observe call. A
// selector that retains any of them past Observe must copy them (every
// in-repo selector copies the scalar values or clones the vectors it keeps).
type RoundFeedback struct {
	// Round is the 0-based round index.
	Round int
	// Selected lists the invited party IDs.
	Selected []int
	// Completed has one report per party whose update arrived within the
	// deadline, in the order the engine folded them (selection order under
	// SyncRounds, arrival order under the async policies). Feedback is
	// arrival-driven under the async policies: a party reports at the
	// aggregation step its update arrived, which can be several model
	// versions after it was selected.
	Completed []PartyReport
	// Stragglers lists invited parties that failed to respond.
	Stragglers []int
}

// PartyReport is one completed party's outcome in a round.
type PartyReport struct {
	// ID is the party.
	ID int
	// MeanLoss is the mean local training loss (Oort's statistical-utility
	// signal); SqLoss the mean squared per-batch loss.
	MeanLoss, SqLoss float64
	// Duration is the simulated round duration: device wall-clock
	// (compute + model transfer) when the device model is active, else the
	// legacy latency × local-work proxy. This is TiFL's tiering signal and
	// Oort's systemic-utility signal.
	Duration float64
	// Staleness is the number of server model versions applied between the
	// party's dispatch and its aggregation: always 0 under SyncRounds.
	Staleness int
	// Update is the parameter delta x_i − m (GradClus's clustering signal).
	// Under the async policies m is the model version the party downloaded
	// at dispatch, not the current one. It is nil unless the selector
	// declares the UpdateConsumer capability (and always nil under
	// masking). Shared storage: treat as read-only and clone anything
	// retained past Observe.
	Update tensor.Vec
}
