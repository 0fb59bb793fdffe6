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

// Name implements AggregationPolicy.
func (SyncRounds) Name() string { return "sync" }

func (SyncRounds) cycle(c *eventCore, round int) (cycleStats, error) {
	cfg := c.cfg
	tag, roundRng := c.nextWave()
	invited, err := c.selectParties(round, c.cohortTarget(round))
	if err != nil {
		return cycleStats{}, err
	}
	if len(invited) == 0 {
		return cycleStats{}, fmt.Errorf("fl: selector %q returned no parties at round %d", cfg.Selector.Name(), round)
	}

	// Under masking the invited cohort enrolls before anyone trains: the
	// pairwise mask agreements and the Shamir share escrow happen while
	// every member is still reachable, so a party that later misses the
	// deadline (or is blacked out by a chaos outage) can have its masks
	// reconstructed from the survivors' shares.
	var mw *maskWave
	if c.priv != nil && c.priv.pc.Mask {
		if mw, err = c.priv.beginWave(tag, c.version, invited); err != nil {
			return cycleStats{}, err
		}
	}

	c.completed, c.stragglers = c.completed[:0], c.stragglers[:0]
	downloads := len(invited)
	if c.useDevices {
		c.completed, c.stragglers, downloads = simulateDeviceRound(cfg, invited, c.sgd, c.paramBytes, round, roundRng.Split(0x5A), c.completed, c.stragglers, &c.durations)
	} else {
		c.stragglers = pickStragglers(*cfg, invited, roundRng.Split(0x5A), c.stragglers)
		for _, id := range c.stragglers {
			c.isStraggler.set(id, true)
		}
		// Chaos outages stack on the legacy coin-flip: forced-offline
		// parties straggle too (after the flip so the legacy RNG stream
		// is untouched on clean runs).
		if cfg.Faults != nil {
			for _, id := range invited {
				if !c.isStraggler.get(id) && cfg.Faults.ForceOffline(round, id) {
					c.isStraggler.set(id, true)
					c.stragglers = append(c.stragglers, id)
				}
			}
		}
		for _, id := range invited {
			if !c.isStraggler.get(id) {
				c.completed = append(c.completed, id)
			}
		}
		for _, id := range c.stragglers {
			c.isStraggler.set(id, false)
		}
	}
	completed, stragglers := c.completed, c.stragglers

	needsUpdates := c.prepareFeedback(round)
	c.fb.Selected = invited
	c.fb.Completed = completed
	c.fb.Stragglers = stragglers

	// Local training of all completed parties runs concurrently; worker
	// replicas are lazily cloned once and re-seeded from the global
	// parameters each use (see trainBatch for the determinism contract).
	if err := c.trainBatch(completed, roundRng); err != nil {
		return cycleStats{}, err
	}

	// One pass in selection order — floating-point addition is not
	// associative, and the byte-exact contract with the pre-event-core
	// engine (and with sequential runs at every parallelism) pins this
	// order. Each party's raw trained parameters (c.locals[i] owns its
	// vector, safe to rewrite) are corrupted, timed, FedDyn-corrected,
	// masked or clipped, admitted, and reported to the selector. Nothing
	// reads them past this round's fold, so every vector is spent here.
	// The round wall-clock is the slowest completing party (max is
	// order-insensitive); when a deadline is configured and anyone missed
	// it, the full deadline elapsed.
	c.updates, c.weights = c.updates[:0], c.weights[:0]
	var roundTime, lossSum float64
	memberCursor := 0
	for i, id := range completed {
		lr := c.locals[i]
		params := lr.Params
		c.spent = append(c.spent, params)
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
			d = c.durations.get(id)
		} else {
			d = perturbDuration(cfg, cfg.Parties[id], round, id, cfg.Parties[id].Latency*float64(lr.Steps))
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
			if !isFiniteVec(params) {
				// An unencodable update never reaches the sum; the party
				// becomes a dropout and its masks are reconstructed like
				// any other.
				c.cycleRejected++
				c.priv.markRejected(mw)
			} else {
				clipDeltaInPlace(params, c.priv.pc.Clip)
				c.priv.contribute(mw, memberCursor, params, weight)
			}
			memberCursor++
		} else {
			if c.priv != nil && c.priv.pc.Clip > 0 {
				clipParamsInPlace(params, c.globalParams, c.priv.pc.Clip)
			}
			c.admitUpdate(params, weight)
		}
		c.fb.MeanLoss[id] = lr.MeanLoss
		c.fb.SqLoss[id] = lr.SqLossMean
		c.fb.Duration[id] = d
		if needsUpdates {
			c.fb.Update[id] = params.Sub(c.globalParams)
		}
		lossSum += lr.MeanLoss
	}
	if c.useDevices && cfg.Deadline > 0 && len(stragglers) > 0 {
		roundTime = cfg.Deadline
	}
	c.clock += roundTime

	global, contributors := c.globalParams, len(c.updates)
	if mw != nil {
		res, err := c.priv.settleWave(mw)
		if err != nil {
			return cycleStats{}, err
		}
		// Every member was processed or dropped within the round, so the
		// wave recycles unconditionally.
		c.priv.freeWave(mw)
		if res.aborted {
			c.cycleMaskAborted = true
		} else if res.delta != nil {
			// The decoded cohort mean folds as one synthetic update (the
			// single-update weighted mean is exact), reusing the sharded
			// fold and optimizer seam unchanged.
			c.updates = append(c.updates, res.delta)
			c.weights = append(c.weights, res.weight)
		}
		global, contributors = nil, res.survivors
	}
	c.applyFold(global, contributors)

	// Communication: every reachable invited party downloads the model
	// (deadline-missers downloaded before timing out; offline parties
	// never contacted the server); every completed party uploads an
	// update.
	c.cycleBytes = c.paramBytes * int64(downloads+len(completed))

	st := cycleStats{invited: len(invited), completed: len(completed), roundTime: roundTime}
	if len(completed) > 0 {
		st.meanLoss = lossSum / float64(len(completed))
	}
	return st, nil
}
