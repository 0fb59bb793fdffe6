package fl

import "fmt"

// SyncRounds is the classic synchronous execution model (the paper's
// setting, and the default): every round invites a cohort, the server waits
// for all completing parties, and their updates are folded together in one
// aggregation step.
//
// Running on the event core changes nothing observable: the policy consumes
// the exact RNG stream of the pre-event-core engine (round stream split, the
// 0x5A straggler/availability stream, then per-party 0x1000+id training
// streams, in that order) and folds updates in selection order, so the
// committed goldens in testdata/ reproduce byte-for-byte. The event queue
// still carries every update: arrivals are scheduled at clock+duration,
// drained in (time, seq) order, and the round wall-clock is the slowest
// drained arrival — the sync policy is simply the one whose aggregation
// barrier is "everything arrived".
type SyncRounds struct{}

// Name implements AggregationPolicy.
func (SyncRounds) Name() string { return "sync" }

func (p SyncRounds) run(c *eventCore) error {
	cfg := c.cfg
	startRound := 0
	if cfg.Resume != nil {
		startRound = c.restoreCommon(cfg.Resume)
		// Fast-forward the root RNG so per-round streams match an
		// uninterrupted run of the same seed.
		for r := 0; r < startRound; r++ {
			c.root.Split(uint64(r) + 1)
		}
		c.waves = startRound
		c.clock = c.res.SimTime
	}

	for round := startRound; round < cfg.Rounds; round++ {
		roundRng := c.root.Split(uint64(round) + 1)
		c.waves++

		c.decayLR(round)

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
			if mw, err = c.priv.beginWave(uint64(c.waves), c.version, invited); err != nil {
				return err
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
			return err
		}

		// Schedule every completing party's arrival. Sync pending records
		// live in a per-round pooled slice (they never outlive the round)
		// and carry the raw trained parameters: the fold below subtracts the
		// current global model exactly as the historical aggregation did.
		if cap(c.pendingPool) < len(completed) {
			c.pendingPool = make([]pendingUpdate, len(completed))
		}
		c.pendingPool = c.pendingPool[:len(completed)]
		for i, id := range completed {
			lr := c.locals[i]
			// A corrupt party reports an attacked update: its trained delta
			// is rewritten in place (lr.Params is a per-party clone) and
			// re-based onto the current global model, so the raw-parameter
			// sync fold sees global + corrupted-delta. Clean parties are
			// never touched — their float bits cannot move.
			if cfg.Faults != nil && cfg.Faults.Corrupts(id) {
				lr.Params.SubInPlace(c.globalParams)
				cfg.Faults.CorruptDelta(round, id, lr.Params)
				lr.Params.AddInPlace(c.globalParams)
			}
			d := c.durations.get(id)
			if !c.useDevices {
				d = cfg.Parties[id].Latency * float64(lr.Steps)
				d = perturbDuration(cfg, cfg.Parties[id], round, id, d)
				c.durations.set(id, d)
			}
			c.pendingPool[i] = pendingUpdate{
				party:    id,
				update:   lr.Params,
				weight:   float64(lr.NumSamples),
				version:  c.version,
				arrival:  c.clock + d,
				duration: d,
				meanLoss: lr.MeanLoss,
				sqLoss:   lr.SqLossMean,
				steps:    lr.Steps,
			}
			c.push(&c.pendingPool[i])
		}

		// Drain the whole round — the sync barrier. The round wall-clock is
		// the slowest completing party; when a deadline is configured and
		// anyone missed it, the full deadline elapsed.
		var roundTime float64
		for c.queue.len() > 0 {
			ev := c.queue.pop()
			c.pendingByParty.set(ev.up.party, ev.up)
			if ev.up.duration > roundTime {
				roundTime = ev.up.duration
			}
		}
		if c.useDevices && cfg.Deadline > 0 && len(stragglers) > 0 {
			roundTime = cfg.Deadline
		}
		c.res.SimTime += roundTime
		c.clock = c.res.SimTime

		// Fold in selection order — floating-point addition is not
		// associative, and the byte-exact contract with the pre-event-core
		// engine (and with sequential runs at every parallelism) pins this
		// order, not arrival order.
		c.updates, c.weights = c.updates[:0], c.weights[:0]
		var lossSum float64
		memberCursor := 0
		for _, id := range completed {
			up := c.pendingByParty.get(id)
			params := up.update
			c.markShard(id)
			if cfg.FedDynAlpha > 0 {
				params = applyFedDyn(c.dynState, id, params, c.globalParams, cfg.FedDynAlpha)
			}
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
					c.priv.contribute(mw, memberCursor, params, up.weight)
				}
				memberCursor++
			} else {
				if c.priv != nil && c.priv.pc.Clip > 0 {
					clipParamsInPlace(params, c.globalParams, c.priv.pc.Clip)
				}
				c.admitUpdate(params, up.weight)
			}
			c.fb.MeanLoss[id] = up.meanLoss
			c.fb.SqLoss[id] = up.sqLoss
			c.fb.Duration[id] = up.duration
			if needsUpdates {
				c.fb.Update[id] = params.Sub(c.globalParams)
			}
			lossSum += up.meanLoss
		}

		if mw != nil {
			res, err := c.priv.settleWave(mw)
			if err != nil {
				return err
			}
			// Sync waves never leave dangling event references — the queue was
			// fully drained above — so the wave recycles unconditionally.
			c.priv.freeWave(mw)
			if res.aborted {
				c.cycleMaskAborted = true
			} else if res.delta != nil {
				// The decoded cohort mean folds as one synthetic update (the
				// single-update weighted mean is exact), reusing the sharded
				// fold and optimizer seam unchanged.
				c.updates = append(c.updates, res.delta)
				c.weights = append(c.weights, res.weight)
				c.fold(nil)
				c.priv.addNoise(c.delta, res.survivors)
				c.applyDelta()
			}
		} else if len(c.updates) > 0 {
			c.fold(c.globalParams)
			if c.priv != nil {
				c.priv.addNoise(c.delta, len(c.updates))
			}
			c.applyDelta()
		}

		// Communication: every reachable invited party downloads the model
		// (deadline-missers downloaded before timing out; offline parties
		// never contacted the server); every completed party uploads an
		// update.
		roundBytes := c.paramBytes * int64(downloads+len(completed))
		c.res.TotalCommBytes += roundBytes

		cfg.Selector.Observe(c.fb)

		var meanLoss float64
		if len(completed) > 0 {
			meanLoss = lossSum / float64(len(completed))
		}
		c.maybeEval(round, len(invited), len(completed), roundBytes, meanLoss, roundTime)
		c.maybeCheckpoint(round, p, nil)
		c.resetShards()
	}
	return nil
}
