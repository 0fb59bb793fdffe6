package selection

import (
	"cmp"
	"math"
	"slices"

	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// scoredKind picks the utility signal a Scored selector ranks parties by.
type scoredKind int

const (
	// scoreGradNorm ranks by ‖Δ_i‖₂ of the last observed update — parties
	// whose local training still moves the model far contribute more.
	scoreGradNorm scoredKind = iota
	// scoreLossProp ranks proportionally to the party's mean local loss
	// (the loss-based sampling family: high-loss parties are undertrained).
	scoreLossProp
	// scoreDivergence ranks by ‖Δ_i − Δ̄‖₂, the update's distance from the
	// round's mean update — parties whose data pulls the model away from
	// the crowd carry the non-IID signal.
	scoreDivergence
	// scoreSoftDeadline ranks by deadline fit: 1 inside the deadline,
	// decaying quadratically with the overshoot ratio outside it.
	scoreSoftDeadline
	// scoreHardDeadline ranks 0/1: parties that missed the deadline (or
	// straggled) are excluded from exploitation entirely until they
	// complete inside it again.
	scoreHardDeadline
)

// scoredNames are the kinds' selector registry names.
var scoredNames = [...]string{"grad-norm", "loss-prop", "divergence", "soft-deadline", "hard-deadline"}

func (k scoredKind) String() string { return scoredNames[k] }

// Scored is the shared engine behind the score-driven selector family
// (grad-norm, loss-prop, divergence, soft-deadline, hard-deadline): tried
// parties live in a top-k utility heap keyed by the kind's score, each round
// splits the request between exploring never-tried parties and sampling the
// candidate band Categorically by score, and Observe re-keys heap entries —
// O(log tried), plus at most one shift of the sorted band — from the round's
// feedback.
//
// State updates consume feedback through copies of the reports and the
// stragglers sorted by party ID, so Observe — and therefore every later
// Select — is invariant to feedback ordering. The candidate band is the top
// max(candidatePool, 2·request) tried parties at every fleet size: the whole
// tried set until more than candidatePool parties have been tried.
type Scored struct {
	kind       scoredKind
	numParties int
	r          *rng.Source
	// fixedDeadline is the reporting deadline in simulated seconds for the
	// deadline kinds. 0 means adaptive: the mean observed completion duration
	// (every party fits until the first durations arrive).
	fixedDeadline float64
	triedSet

	// Adaptive-deadline accumulator (deadline kinds only).
	durSum   float64
	durCount int

	// Reusable per-round scratch.
	inRound     []bool
	reports     []fl.PartyReport
	stragglers  []int
	meanScratch tensor.Vec
}

var _ fl.Selector = (*Scored)(nil)
var _ fl.UpdateConsumer = (*Scored)(nil)

// newScored builds the kind's selector: the exploration schedule and the
// candidate band are the ones Oort uses (band.go); deadline only matters to
// the deadline kinds.
func newScored(kind scoredKind, numParties int, deadline float64, r *rng.Source) *Scored {
	return &Scored{
		kind:          kind,
		numParties:    numParties,
		r:             r,
		fixedDeadline: deadline,
		triedSet:      newTriedSet(numParties, true),
		inRound:       make([]bool, numParties),
	}
}

// Name implements fl.Selector.
func (s *Scored) Name() string { return s.kind.String() }

// NeedsUpdates implements fl.UpdateConsumer: only the update-driven kinds
// make the engine materialize delta vectors.
func (s *Scored) NeedsUpdates() bool {
	return s.kind == scoreGradNorm || s.kind == scoreDivergence
}

// Select implements fl.Selector: exploration over never-tried parties first
// (rejection-sampled against the tried bitmap), then Categorical sampling by
// score over the candidate band. Always returns exactly min(target, N)
// parties.
func (s *Scored) Select(_, target int) []int {
	target = min(target, s.numParties)
	nExplore, nExploit := s.split(target)

	selected := make([]int, 0, target)
	if nExplore > 0 {
		// Rejection sampling is cheap while untried parties are plentiful;
		// the deterministic walk guarantees termination once they are not.
		picked := 0
		for tries := 0; picked < nExplore && tries < 16*(nExplore+4); tries++ {
			id := s.r.Intn(s.numParties)
			if s.tried[id] || s.inRound[id] {
				continue
			}
			s.inRound[id] = true
			selected = append(selected, id)
			picked++
		}
		for id := 0; picked < nExplore && id < s.numParties; id++ {
			if s.tried[id] || s.inRound[id] {
				continue
			}
			s.inRound[id] = true
			selected = append(selected, id)
			picked++
		}
		for _, id := range selected {
			s.inRound[id] = false
		}
	}
	if nExploit > 0 {
		s.readBand(target)
		selected = s.draw(selected, nExploit, s.r)
	}
	return selected
}

// Observe implements fl.Selector. Completed parties and stragglers are
// processed in sorted-id order so the resulting state is independent of the
// engine's feedback ordering.
func (s *Scored) Observe(fb fl.RoundFeedback) {
	s.reports = append(s.reports[:0], fb.Completed...)
	slices.SortFunc(s.reports, func(a, b fl.PartyReport) int { return cmp.Compare(a.ID, b.ID) })

	// The deadline kinds resolve the deadline before ingesting this round's
	// durations, so a round is judged against the history that preceded it.
	var deadline float64
	if s.kind == scoreSoftDeadline || s.kind == scoreHardDeadline {
		deadline = s.deadline()
	}
	if s.kind == scoreDivergence {
		s.roundMean()
	}

	for _, r := range s.reports {
		id := r.ID
		s.markTried(id)
		switch s.kind {
		case scoreGradNorm:
			if r.Update != nil {
				s.setUtility(id, r.Update.Norm2())
			}
		case scoreLossProp:
			s.setUtility(id, math.Max(r.MeanLoss, 0))
		case scoreDivergence:
			if r.Update != nil && len(r.Update) == len(s.meanScratch) {
				var sq float64
				for j, x := range r.Update {
					d := x - s.meanScratch[j]
					sq += float64(d * d)
				}
				s.setUtility(id, math.Sqrt(sq))
			}
		case scoreSoftDeadline, scoreHardDeadline:
			d := r.Duration
			fit := 1.0
			if d > deadline {
				if s.kind == scoreHardDeadline {
					fit = 0
				} else {
					fit = (deadline / d) * (deadline / d)
				}
			}
			s.setUtility(id, fit)
			s.durSum += d
			s.durCount++
		}
	}

	if len(fb.Stragglers) > 0 {
		s.stragglers = append(s.stragglers[:0], fb.Stragglers...)
		slices.Sort(s.stragglers)
		for _, id := range s.stragglers {
			s.markTried(id)
			switch s.kind {
			case scoreSoftDeadline:
				s.setUtility(id, s.utility[id]/4)
			case scoreHardDeadline:
				s.setUtility(id, 0)
			}
		}
	}
	s.decay()
}

// deadline resolves the active deadline: the configured one, else the mean
// observed duration, else +Inf (every party fits until history exists).
func (s *Scored) deadline() float64 {
	if s.fixedDeadline > 0 {
		return s.fixedDeadline
	}
	if s.durCount == 0 {
		return math.Inf(1)
	}
	return s.durSum / float64(s.durCount)
}

// roundMean accumulates the mean of this round's updates into meanScratch.
// The dimensionality follows the first usable update; mismatched vectors are
// skipped (they cannot be averaged together).
func (s *Scored) roundMean() {
	s.meanScratch = s.meanScratch[:0]
	count := 0
	for _, r := range s.reports {
		u := r.Update
		if u == nil {
			continue
		}
		if count == 0 {
			s.meanScratch = append(s.meanScratch, u...)
			count = 1
			continue
		}
		if len(u) != len(s.meanScratch) {
			continue
		}
		s.meanScratch.AddInPlace(u)
		count++
	}
	if count > 1 {
		s.meanScratch.ScaleInPlace(1 / float64(count))
	}
}
