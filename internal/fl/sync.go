package fl

import "fmt"

// SyncRounds is the classic synchronous execution model (the paper's
// setting, and the default): every round invites a cohort, the server waits
// for all completing parties, and their updates are folded together in one
// aggregation step.
//
// A sync round is one selection wave: it consumes the exact RNG stream of
// the pre-event-core engine (the wave's root split, the 0x5A
// straggler/availability stream, then per-party 0x1000+id training streams,
// in that order), folds updates in selection order in one pass over the
// completed parties, and advances the clock by the slowest completing
// party's duration — so the committed goldens in testdata/ reproduce
// byte-for-byte. Nothing outlives the round: the barrier is "everything
// arrived", so no update is ever in flight between rounds.
type SyncRounds struct{}

func (SyncRounds) cycle(c *eventCore, round int) error {
	cfg := c.cfg
	tag, roundRng := c.nextWave()
	invited, err := c.selectParties(round, c.cohortTarget(round))
	if err != nil {
		return err
	}
	if len(invited) == 0 {
		return fmt.Errorf("fl: selector %q returned no parties at round %d", cfg.Selector.Name(), round)
	}

	// Under masking the invited cohort enrolls before anyone trains: the
	// pairwise mask agreements and the Shamir share escrow happen while
	// every member is still reachable, so a party that later misses the
	// deadline (or is blacked out by a chaos outage) can have its masks
	// reconstructed from the survivors' shares.
	var mw *maskWave
	if c.priv != nil && c.priv.pc.Mask {
		if mw, err = c.priv.beginWave(tag, c.version, invited); err != nil {
			return err
		}
	}

	// Each invited party's fate, in invited order. The legacy model drops
	// its StragglerRate coin-flip first (marked in the seen bitmap, which
	// selectParties leaves clear) and charges every invitee a download;
	// chaos outages stack on the flip afterwards, so the legacy RNG stream
	// is untouched on clean runs. Under the device model a reachable party
	// downloads the model and completes iff its duration meets the deadline
	// (when one is set).
	c.completed, c.completedDur, c.stragglers = c.completed[:0], c.completedDur[:0], c.stragglers[:0]
	ar := roundRng.Split(0x5A)
	downloads := len(invited)
	if c.useDevices {
		downloads = 0
	} else {
		c.stragglers = pickStragglers(*cfg, invited, ar, c.stragglers)
		for _, id := range c.stragglers {
			c.seen.add(id)
		}
	}
	for _, id := range invited {
		if c.seen.has(id) {
			c.seen.remove(id)
			continue
		}
		if c.unreachable(round, id, ar) {
			c.stragglers = append(c.stragglers, id)
			continue
		}
		if c.useDevices {
			downloads++
			d := c.duration(round, id, 0)
			if cfg.Deadline > 0 && d > cfg.Deadline {
				c.stragglers = append(c.stragglers, id)
				continue
			}
			c.completedDur = append(c.completedDur, d)
		}
		c.completed = append(c.completed, id)
	}
	completed, stragglers := c.completed, c.stragglers
	c.fb.Selected = invited
	c.fb.Stragglers = stragglers

	// Local training of all completed parties runs concurrently; worker
	// replicas are lazily cloned once and re-seeded from the global
	// parameters each use (see trainBatch for the determinism contract).
	if err := c.trainBatch(completed, roundRng); err != nil {
		return err
	}

	// One pass in selection order — floating-point addition is not
	// associative, and the byte-exact contract with the pre-event-core
	// engine (and with sequential runs at every parallelism) pins this
	// order. Each party's raw trained parameters (c.locals[i] owns its
	// vector, safe to rewrite) are corrupted, timed, FedDyn-corrected,
	// masked or clipped, admitted, and reported to the selector. Nothing
	// reads them past this round's fold, so every vector is spent this
	// cycle: here, or by the mask wave's settlement when it contributed.
	// The round wall-clock is the slowest completing party (max is
	// order-insensitive); when a deadline is configured and anyone missed
	// it, the full deadline elapsed.
	c.updates, c.weights = c.updates[:0], c.weights[:0]
	var roundTime float64
	memberCursor := 0
	for i, id := range completed {
		lr := c.locals[i]
		params := lr.Params
		if mw == nil {
			c.spent = append(c.spent, params)
		}
		// A corrupt party reports an attacked update: its trained delta is
		// rewritten and re-based onto the current global model, so the
		// raw-parameter fold sees global + corrupted-delta. Clean parties
		// are never touched — their float bits cannot move.
		if cfg.Faults != nil && cfg.Faults.Corrupts(id) {
			params.SubInPlace(c.globalParams)
			cfg.Faults.CorruptDelta(round, id, params)
			params.AddInPlace(c.globalParams)
		}
		var d float64
		if c.useDevices {
			d = c.completedDur[i]
		} else {
			d = c.duration(round, id, lr.Steps)
		}
		if d > roundTime {
			roundTime = d
		}
		c.markShard(id)
		if cfg.FedDynAlpha > 0 {
			corrected := c.takeVec()
			c.spent = append(c.spent, corrected)
			params = applyFedDyn(c.dynState, id, params, c.globalParams, cfg.FedDynAlpha, corrected)
		}
		weight := float64(lr.NumSamples)
		if mw != nil {
			// Masked path: the party uploads its clipped dispatch delta as
			// a masked fixed-point vector; the server only ever folds the
			// cohort sum. completed preserves invited order, so the member
			// index advances with a two-pointer walk.
			for invited[memberCursor] != id {
				memberCursor++
			}
			params.SubInPlace(c.globalParams)
			clipDeltaInPlace(params, c.priv.pc.Clip)
			if !c.admitMasked(mw, memberCursor, params, weight) {
				c.spent = append(c.spent, params)
			}
			memberCursor++
		} else {
			if c.priv != nil && c.priv.pc.Clip > 0 {
				clipParamsInPlace(params, c.globalParams, c.priv.pc.Clip)
			}
			c.admitUpdate(params, weight)
		}
		report := PartyReport{ID: id, MeanLoss: lr.MeanLoss, SqLoss: lr.SqLossMean, Duration: d}
		if c.needsUpdates {
			report.Update = c.takeVec()
			copy(report.Update, params)
			report.Update.SubInPlace(c.globalParams)
			c.spent = append(c.spent, report.Update)
		}
		c.fb.Completed = append(c.fb.Completed, report)
	}
	if c.useDevices && cfg.Deadline > 0 && len(stragglers) > 0 {
		roundTime = cfg.Deadline
	}
	c.clock += roundTime

	global, contributors := c.globalParams, len(c.updates)
	if mw != nil {
		// The round is the wave's barrier: no member arrives after it, so
		// the wave settles fully processed, and it is never stale (its
		// staleness discount is exactly 1).
		mw.nProcessed = len(mw.members)
		c.priv.waves = append(c.priv.waves, mw)
		if contributors, err = c.settleMaskedWaves(0, true); err != nil {
			return err
		}
		global = nil
	}
	c.applyFold(global, contributors)

	// Communication: the downloads counted above (deadline-missers
	// downloaded before timing out; offline device parties never contacted
	// the server); every completed party uploads an update.
	c.round.CommBytes += c.paramBytes * int64(downloads+len(completed))
	c.round.Invited, c.round.Completed, c.round.RoundTime = len(invited), len(completed), roundTime
	return nil
}
