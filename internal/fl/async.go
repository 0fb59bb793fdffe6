package fl

import (
	"fmt"

	"flips/internal/fmath"
)

// defaultStalenessHalfLife is the staleness half-life (in server model
// versions) used when a policy leaves StalenessHalfLife zero: an update four
// versions stale keeps 1/16 of its weight under H=1, half under H=4.
const defaultStalenessHalfLife = 4.0

// maxBarrenWaves bounds consecutive selection waves that dispatch nobody
// (every invited party offline or already in flight) before the engine
// declares the pool dead. Availability processes tick per wave, so a
// temporarily dark fleet (diurnal night, churn bad luck, trace gap) recovers
// long before this.
const maxBarrenWaves = 10000

// stalenessDiscount is the async aggregation weight multiplier
// 2^(−staleness/halfLife): a fresh update keeps full weight, an update
// halfLife model-versions stale keeps half, and so on — FedBuff-style
// damping that lets slow devices contribute without dragging the global
// model toward their stale gradients.
func stalenessDiscount(staleness int, halfLife float64) float64 {
	if staleness <= 0 {
		return 1
	}
	return fmath.Exp2(-float64(staleness) / halfLife)
}

func orHalfLife(h float64) float64 {
	if h == 0 {
		return defaultStalenessHalfLife
	}
	return h
}

// Buffered is FedBuff-style asynchronous aggregation (Nguyen et al., 2022):
// the server keeps Config.PartiesPerRound parties training concurrently and
// folds the buffer into the global model after every K arrivals, weighting
// each delta by n_i · 2^(−staleness/H). Aggregated parties are immediately
// replaced from the selector, so fast devices cycle many times while a slow
// device finishes once — no synchronization barrier, no wasted work.
// Config.Rounds counts aggregation steps, so histories and the evaluation
// cadence line up with the synchronous modes; SimTime is the event clock at
// each step's K-th arrival, which makes TimeToTarget comparable across
// policies.
type Buffered struct {
	// K is the buffer size: the server aggregates after every K arrivals.
	// Zero defaults to max(1, PartiesPerRound/2); K must not exceed
	// Config.PartiesPerRound (the concurrency M), matching FedBuff's K ≤ M
	// — a buffer larger than the pipeline could never fill.
	K int
	// StalenessHalfLife is H in the 2^(−staleness/H) weight discount,
	// measured in server model versions. Zero defaults to 4.
	StalenessHalfLife float64
}

func (p Buffered) cycle(c *eventCore, step int) error {
	k := p.K
	if k == 0 {
		k = max(1, c.cfg.PartiesPerRound/2)
	}
	prevClock := c.clock

	// Refill the training pipeline to the step's cohort target (the nominal
	// PartiesPerRound, or a chaos flash-crowd surge of it) of reserved
	// parties (best-effort: stop on the first wave that dispatches nobody
	// new — arrivals will free up parties for later cycles).
	m := c.cohortTarget(step)
	for c.inFlightCount < m {
		n, err := c.dispatchWave(step, m-c.inFlightCount)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}

	// Drain the next K arrivals, dispatching further waves whenever the
	// queue runs dry (a partial refill under churn, or an all-offline
	// stretch that only more waves can outlast). Popped parties stay
	// reserved until the buffer is aggregated, so one party can never
	// appear twice in the same buffer; K ≤ PartiesPerRound (validated)
	// guarantees free candidates always remain for the top-up waves.
	c.buffer = c.buffer[:0]
	for len(c.buffer) < k {
		// Top-up waves ask only for the residual pipeline capacity, so
		// concurrency never exceeds the FedBuff M cap (the step's cohort
		// target; buffered-but-unaggregated parties still hold slots).
		if err := c.ensureQueued(step, m-c.inFlightCount); err != nil {
			return err
		}
		c.buffer = append(c.buffer, c.popArrival())
	}

	c.round.RoundTime = c.clock - prevClock
	return c.aggregateAsync(orHalfLife(p.StalenessHalfLife), false)
}

// SemiSync is deadline-window aggregation: every window invites a fresh
// cohort of Config.PartiesPerRound parties, waits Config.Deadline simulated
// seconds, and folds whatever arrived. Unlike SyncRounds, parties that miss
// the deadline are not dropped — they keep training and their updates land
// in a later window, discounted by 2^(−staleness/H). Config.Rounds counts
// windows; SimTime advances by exactly Deadline per window.
type SemiSync struct {
	// StalenessHalfLife is H in the 2^(−staleness/H) weight discount,
	// measured in server model versions. Zero defaults to 4.
	StalenessHalfLife float64
}

func (p SemiSync) cycle(c *eventCore, step int) error {
	// One selection wave per window; parties still training from earlier
	// windows stay in flight and are not re-invited.
	if _, err := c.dispatchWave(step, c.cohortTarget(step)); err != nil {
		return err
	}

	// Collect everything that arrives inside the window, then snap the
	// clock to the deadline — the server pays the full window whether or
	// not anyone showed up (an empty window aggregates nothing but still
	// counts as a round).
	windowEnd := c.clock + c.cfg.Deadline
	c.buffer = c.buffer[:0]
	for c.queue.len() > 0 && c.queue.peek().time <= windowEnd {
		c.buffer = append(c.buffer, c.popArrival())
	}
	c.clock = windowEnd
	c.round.RoundTime = c.cfg.Deadline
	return c.aggregateAsync(orHalfLife(p.StalenessHalfLife), true)
}

// dispatchWave runs one selection wave: it asks the selector for a full
// PartiesPerRound cohort, filters out candidates already reserved (training,
// or arrived but not yet aggregated), draws availability for the rest,
// trains up to cap online parties immediately against the current global
// model, and schedules their arrival events at clock + simulated duration.
// The selector always sees the full cohort target — capping the *dispatch*
// count rather than the invitation keeps deterministic selectors from
// resurfacing only their (possibly all-reserved) top candidates, while the
// cap keeps concurrency at the FedBuff M = PartiesPerRound limit.
//
// Training runs eagerly because durations are analytic: the arrival event
// only delivers a result that is already determined at dispatch, so the
// numbers are independent of event processing order and of engine
// parallelism. The wave consumes root stream Split(wave+1) with the same
// interior structure as a synchronous round (0x5A availability stream with
// per-party children, then per-party 0x1000+id training streams, pre-split
// in dispatch order on this goroutine) — a sync round is one wave of the
// same cursor.
//
// The selector and the availability processes both see step — the
// aggregation-step index, the same clock RoundFeedback.Round reports and
// the same unit sync rounds tick on — so adaptive selectors (Oort's age
// term) compare like with like, and a trace slot or diurnal period means
// the same fleet behavior in every aggregation mode. The wave counter is
// purely the root-RNG split cursor: each top-up wave within a step draws
// fresh availability coins (an offline churn party can come online on a
// retry) from its own stream, but against the step's probabilities.
func (c *eventCore) dispatchWave(step, cap int) (int, error) {
	tag, wr := c.nextWave()
	ids, err := c.selectParties(step, c.cohortTarget(step))
	if err != nil {
		return 0, err
	}
	// A selector with no candidates at all is broken — the same condition
	// SyncRounds errors on. (Candidates that are merely in flight or offline
	// are fine; those waves count as barren and availability advances.)
	if len(ids) == 0 {
		return 0, fmt.Errorf("fl: selector %q returned no parties at step %d", c.cfg.Selector.Name(), step)
	}
	ar := wr.Split(0x5A)
	c.dispatched = c.dispatched[:0]
	for _, id := range ids {
		if len(c.dispatched) >= cap {
			break
		}
		if c.inFlight.has(id) {
			continue
		}
		if c.unreachable(step, id, ar) {
			// Record each offline invitee once per cycle, however many waves
			// re-draw it; if a later wave finds it online and dispatches it,
			// aggregateAsync drops it from the straggler list.
			if !c.offlineMark.has(id) {
				c.offlineMark.add(id)
				c.cycleOffline = append(c.cycleOffline, id)
			}
			continue
		}
		c.dispatched = append(c.dispatched, id)
	}

	if err := c.trainBatch(c.dispatched, wr); err != nil {
		return 0, err
	}

	// Under masking every dispatch wave is one secure-aggregation cohort:
	// its members enroll together (pairwise agreements + Shamir escrow) and
	// their masked uploads only decode as a cohort sum at the wave's
	// settlement barrier. The wave tag doubles as the mask-stream round tag.
	var mw *maskWave
	if c.priv != nil && c.priv.pc.Mask && len(c.dispatched) > 0 {
		var err error
		if mw, err = c.priv.beginWave(tag, c.version, c.dispatched); err != nil {
			return 0, err
		}
		c.priv.waves = append(c.priv.waves, mw)
	}

	for i, id := range c.dispatched {
		lr := c.locals[i]
		d := c.duration(step, id, lr.Steps)
		// The pending update carries the dispatch-time delta: by the time it
		// aggregates, the global model has moved on. lr.Params is this
		// party's own vector, safe to mutate in place; it travels with the
		// update until the fold that consumes it is observed.
		delta := lr.Params
		delta.SubInPlace(c.globalParams)
		if c.cfg.Faults != nil && c.cfg.Faults.Corrupts(id) {
			c.cfg.Faults.CorruptDelta(step, id, delta)
		}
		// The clip stage runs at dispatch, after any chaos corruption — the
		// bound applies to what the party actually reports, which is exactly
		// why clipping blunts scaled-delta attacks.
		if c.priv != nil && c.priv.pc.Clip > 0 {
			clipDeltaInPlace(delta, c.priv.pc.Clip)
		}
		up := c.newPending()
		*up = pendingUpdate{
			report:  PartyReport{ID: id, MeanLoss: lr.MeanLoss, SqLoss: lr.SqLossMean, Duration: d},
			update:  delta,
			weight:  float64(lr.NumSamples),
			version: c.version,
			arrival: c.clock + d,
			wave:    mw,
			waveIdx: i,
		}
		c.push(up)
		c.inFlight.add(id)
		c.inFlightCount++
		c.selectedMark.add(id)
		c.cycleSelected = append(c.cycleSelected, id)
		c.round.CommBytes += c.paramBytes // model download at dispatch
	}
	return len(c.dispatched), nil
}

// ensureQueued dispatches selection waves until at least one arrival event
// is queued. Each retry wave draws fresh availability coins from its own
// RNG stream (against the current step's probabilities), so a churn or
// diurnal fleet that came up dark recovers; a fleet that is deterministically
// offline for the whole step (an all-offline trace slot with nothing in
// flight) has no next event to advance the simulation and errors out after
// maxBarrenWaves instead of spinning forever.
func (c *eventCore) ensureQueued(step, target int) error {
	barren := 0
	for c.queue.len() == 0 {
		want := target
		if want < 1 {
			want = 1
		}
		n, err := c.dispatchWave(step, want)
		if err != nil {
			return err
		}
		if n > 0 {
			return nil
		}
		barren++
		if barren >= maxBarrenWaves {
			return fmt.Errorf("fl: %d consecutive selection waves dispatched no parties (pool offline or selector starved)", barren)
		}
	}
	return nil
}

// popArrival consumes the next arrival event and advances the simulated
// clock. The party stays reserved (inFlight) until its buffer is aggregated
// — aggregateAsync releases it — so a fast party cannot be re-dispatched
// into the same aggregation buffer it already contributed to.
func (c *eventCore) popArrival() *pendingUpdate {
	ev := c.queue.pop()
	c.clock = ev.time
	c.round.CommBytes += c.paramBytes // update upload at arrival
	up := ev.up
	if up.wave != nil {
		// Masked arrivals contribute to their wave the moment they pop: wave
		// completeness must be known at the next settlement barrier, not at
		// whichever aggregation cycle happens to drain this buffer entry.
		if w := up.wave; w.settled {
			// A straggler whose window already closed (SemiSync): its wave
			// settled without it — the dropout masks were reconstructed away —
			// so the payload is discarded, and the wave recycles once its last
			// queued reference drains.
			up.maskDiscarded = true
			w.nProcessed++
			c.priv.maybeFree(w)
		} else {
			up.maskDiscarded = !c.admitMasked(w, up.waveIdx, up.update, up.weight)
		}
	}
	return up
}

// aggregateAsync folds the cycle's arrivals in c.buffer (in arrival order —
// the deterministic event-queue order) into the global model with
// staleness-discounted weights, leaves the arrival-driven feedback in c.fb
// and sets the history entry's Invited and Completed (its round time is the
// policy's).
// An empty buffer applies nothing and leaves the model version unchanged
// (staleness only accrues across real model updates).
//
// Under masking the fold unit is the wave, not the arrival: buffer entries
// already contributed to their waves at pop time, and this step folds every
// wave that has reached its settlement barrier — all members processed, or
// any state when settleAll forces the window closed (SemiSync deadlines,
// where unarrived members become dropouts and their masks are
// reconstructed). Each settled wave decodes to one synthetic update whose
// staleness discount uses the wave's dispatch version — every member shares
// it, so the discount composes with masking without revealing anything
// per-party.
func (c *eventCore) aggregateAsync(halfLife float64, settleAll bool) error {
	c.updates, c.weights = c.updates[:0], c.weights[:0]
	for _, up := range c.buffer {
		up.report.Staleness = c.version - up.version
		if up.wave != nil {
			if up.maskDiscarded {
				// Consumed without contributing (late into a settled wave, or
				// non-finite): no fold weight, no feedback — the selector sees
				// it as a straggler-shaped silence, like sync dropouts.
				continue
			}
		} else {
			c.admitUpdate(up.update, up.weight*stalenessDiscount(up.report.Staleness, halfLife))
		}
		c.markShard(up.report.ID)
		if c.needsUpdates {
			up.report.Update = up.update
		}
		c.fb.Completed = append(c.fb.Completed, up.report)
	}
	contributors := len(c.updates)
	if c.priv != nil && c.priv.pc.Mask {
		var err error
		if contributors, err = c.settleMaskedWaves(halfLife, settleAll); err != nil {
			return err
		}
	}
	c.applyFold(nil, contributors)
	// Release the aggregated parties back into the selectable pool.
	for _, up := range c.buffer {
		c.inFlight.remove(up.report.ID)
		c.inFlightCount--
	}
	// Stragglers are the invitees that were offline at every draw this
	// cycle and never dispatched; they join Selected so the feedback keeps
	// the sync-mode invariants selectors rely on — Stragglers is a
	// duplicate-free subset of Selected, and straggler rates
	// (|Stragglers| / |Selected|) never exceed 1.
	c.stragglers = c.stragglers[:0]
	for _, id := range c.cycleOffline {
		if !c.selectedMark.has(id) {
			c.stragglers = append(c.stragglers, id)
			c.cycleSelected = append(c.cycleSelected, id)
		}
	}
	c.fb.Selected = c.cycleSelected
	c.fb.Stragglers = c.stragglers
	c.round.Invited, c.round.Completed = len(c.cycleSelected), len(c.buffer)
	return nil
}

// settleMaskedWaves walks the active mask waves in dispatch order, settles
// every wave at its barrier (all members processed, or unconditionally when
// settleAll closes the window — a SemiSync deadline, or the sync round,
// whose one wave is never stale) and appends each settled wave's decoded
// synthetic update to the fold buffers with the wave-level staleness
// discount. Below-threshold waves abort: nothing decodes, nothing folds,
// and the cycle surfaces MaskAborted. Returns the total survivor count of
// the settled waves — the contributor count DP noise is calibrated to.
func (c *eventCore) settleMaskedWaves(halfLife float64, settleAll bool) (int, error) {
	t0 := c.cfg.Phases.start()
	defer c.cfg.Phases.stop(PhaseSettle, t0)
	survivors := 0
	kept := c.priv.waves[:0]
	for _, w := range c.priv.waves {
		if !settleAll && w.nProcessed < len(w.members) {
			kept = append(kept, w)
			continue
		}
		res, err := c.priv.settleWave(w)
		if err != nil {
			return 0, err
		}
		// The masked sum has read every contribution: aborted or decoded,
		// the contributed vectors are spent.
		for i := range w.contribs {
			c.spent = append(c.spent, w.contribs[i].delta)
		}
		if res.aborted {
			c.round.MaskAborted = true
		} else if res.delta != nil {
			c.updates = append(c.updates, res.delta)
			c.weights = append(c.weights, res.weight*stalenessDiscount(c.version-w.version, halfLife))
			survivors += res.survivors
		}
		// Recycle now if every member's event already drained; otherwise the
		// wave lingers off-list until its last straggler pops (SemiSync) and
		// maybeFree reclaims it there.
		c.priv.maybeFree(w)
	}
	c.priv.waves = kept
	return survivors, nil
}
