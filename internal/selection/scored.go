package selection

import (
	"math"
	"sort"

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
// candidate band Categorically by score, and Observe re-keys heap entries in
// O(log tried) from the round's feedback.
//
// State updates consume feedback through a sorted copy of the party lists,
// so Observe — and therefore every later Select — is invariant to feedback
// ordering. Below the scale threshold the candidate band is the whole tried
// set; above it the band is bounded by candidatePool. Nothing else differs
// between the modes, so the fleet-scale path's below-threshold twin is
// bit-identical by construction.
type Scored struct {
	kind       scoredKind
	numParties int
	scaleMode  bool
	r          *rng.Source
	// fixedDeadline is the reporting deadline in simulated seconds for the
	// deadline kinds. 0 means adaptive: the mean observed completion duration
	// (every party fits until the first durations arrive).
	fixedDeadline float64

	utility []float64
	tried   []bool
	nTried  int
	heap    utilityHeap
	explore float64

	// Adaptive-deadline accumulator (deadline kinds only).
	durSum   float64
	durCount int

	// Reusable per-round scratch.
	inRound     []bool
	candIDs     []int
	candScores  []float64
	frontier    []int
	obsScratch  []int
	meanScratch tensor.Vec
}

var _ fl.Selector = (*Scored)(nil)
var _ fl.UpdateConsumer = (*Scored)(nil)

// newScored builds the kind's selector: the exploration schedule and the
// candidate band are Oort's (oort.go); deadline only matters to the deadline
// kinds.
func newScored(kind scoredKind, numParties int, deadline float64, scaleThreshold int, r *rng.Source) *Scored {
	return &Scored{
		kind:          kind,
		numParties:    numParties,
		scaleMode:     numParties > scaleThreshold,
		r:             r,
		fixedDeadline: deadline,
		utility:       make([]float64, numParties),
		tried:         make([]bool, numParties),
		heap:          newUtilityHeap(numParties),
		inRound:       make([]bool, numParties),
		explore:       explorationFraction,
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
	if target > s.numParties {
		target = s.numParties
	}
	nUntried := s.numParties - s.nTried
	nExplore := int(math.Round(s.explore * float64(target)))
	if nExplore > nUntried {
		nExplore = nUntried
	}
	nExploit := target - nExplore
	if nExploit > s.nTried {
		// Not enough history yet: widen exploration.
		nExplore = minInt(target, nUntried)
		nExploit = minInt(target-nExplore, s.nTried)
	}

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
		band := s.nTried
		if s.scaleMode {
			band = candidatePool
			if band < 2*target {
				band = 2 * target
			}
			if band > s.nTried {
				band = s.nTried
			}
		}
		// Read the band in (score desc, id asc) order — uniquely determined
		// by the heap's strict total order regardless of internal layout —
		// and sample within it.
		s.candIDs, s.candScores, s.frontier = s.heap.top(band, s.candIDs[:0], s.candScores[:0], s.frontier)
		ids, scores := s.candIDs, s.candScores
		for i := 0; i < nExploit && len(ids) > 0; i++ {
			j := s.r.Categorical(scores)
			selected = append(selected, ids[j])
			last := len(ids) - 1
			ids[j], scores[j] = ids[last], scores[last]
			ids, scores = ids[:last], scores[:last]
		}
	}
	return selected
}

// Observe implements fl.Selector. Completed parties and stragglers are
// processed in sorted-id order so the resulting state is independent of the
// engine's feedback ordering.
func (s *Scored) Observe(fb fl.RoundFeedback) {
	s.obsScratch = append(s.obsScratch[:0], fb.Completed...)
	sort.Ints(s.obsScratch)

	// The deadline kinds resolve the deadline before ingesting this round's
	// durations, so a round is judged against the history that preceded it.
	var deadline float64
	if s.kind == scoreSoftDeadline || s.kind == scoreHardDeadline {
		deadline = s.deadline()
	}
	if s.kind == scoreDivergence {
		s.roundMean(fb)
	}

	for _, id := range s.obsScratch {
		s.markTried(id)
		switch s.kind {
		case scoreGradNorm:
			if u, ok := fb.Update[id]; ok {
				s.setScore(id, u.Norm2())
			}
		case scoreLossProp:
			s.setScore(id, math.Max(fb.MeanLoss[id], 0))
		case scoreDivergence:
			if u, ok := fb.Update[id]; ok && len(u) == len(s.meanScratch) {
				var sq float64
				for j, x := range u {
					d := x - s.meanScratch[j]
					sq += d * d
				}
				s.setScore(id, math.Sqrt(sq))
			}
		case scoreSoftDeadline, scoreHardDeadline:
			d, ok := fb.Duration[id]
			if !ok {
				break
			}
			fit := 1.0
			if d > deadline {
				if s.kind == scoreHardDeadline {
					fit = 0
				} else {
					fit = (deadline / d) * (deadline / d)
				}
			}
			s.setScore(id, fit)
			s.durSum += d
			s.durCount++
		}
	}

	if len(fb.Stragglers) > 0 {
		s.obsScratch = append(s.obsScratch[:0], fb.Stragglers...)
		sort.Ints(s.obsScratch)
		for _, id := range s.obsScratch {
			s.markTried(id)
			switch s.kind {
			case scoreSoftDeadline:
				s.setScore(id, s.utility[id]/4)
			case scoreHardDeadline:
				s.setScore(id, 0)
			}
		}
	}
	s.explore = math.Max(explorationFloor, s.explore*explorationDecay)
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
func (s *Scored) roundMean(fb fl.RoundFeedback) {
	s.meanScratch = s.meanScratch[:0]
	count := 0
	for _, id := range s.obsScratch {
		u, ok := fb.Update[id]
		if !ok {
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

// markTried enters a party into the tried set and the utility heap.
func (s *Scored) markTried(id int) {
	if s.tried[id] {
		return
	}
	s.tried[id] = true
	s.nTried++
	s.heap.push(id, s.utility[id])
}

// setScore writes a party's score, re-keying its heap entry.
func (s *Scored) setScore(id int, u float64) {
	s.utility[id] = u
	s.heap.set(id, u)
}
