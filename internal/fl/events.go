package fl

import (
	"fmt"
	"math"

	"flips/internal/model"
	"flips/internal/parallel"
	"flips/internal/partition"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// AggregationPolicy selects the engine's execution model: how local updates
// are scheduled, collected and folded into the global model. The engine is a
// discrete-event simulation core with one aggregation loop, in Run; a policy
// is the body of one aggregation cycle — everything between the learning-rate
// decay and the shared epilogue (clock, communication, selector feedback,
// evaluation):
//
//   - SyncRounds: the classic synchronization round. All invited parties are
//     dispatched as one wave, the server waits for every completing party,
//     and updates fold in selection order (the paper's model; reproduces the
//     pre-event-core engine bit-for-bit).
//   - Buffered: FedBuff-style asynchronous aggregation. A fixed number of
//     parties train concurrently, their updates travelling as arrival events
//     through a deterministic queue keyed on simulated device time; the
//     server folds every K arrivals with staleness-discounted weights and
//     immediately refills the pipeline, so slow devices never stall fast ones.
//   - SemiSync: deadline-driven windows over the same queue. Whatever arrived
//     by the deadline is aggregated; parties still training carry over into
//     later windows instead of being dropped, their updates discounted by
//     staleness.
//
// The interface is sealed (policies need the unexported event core); the
// three implementations above cover the synchronous, asynchronous and
// semi-synchronous regimes of the mobile-FL literature.
type AggregationPolicy interface {
	// cycle runs aggregation step step: it dispatches, collects and folds,
	// and leaves the cycle's feedback in c.fb, its history entry in c.round
	// and the simulated clock at the cycle's end in c.clock.
	cycle(c *eventCore, step int) error
}

// PolicyByName maps a policy name to its implementation: "" or "sync" →
// SyncRounds, "buffered" → Buffered{K: bufferSize, StalenessHalfLife:
// halfLife}, "semisync" → SemiSync{StalenessHalfLife: halfLife}. A knob the
// named policy has no use for is refused, not dropped.
func PolicyByName(name string, bufferSize int, halfLife float64) (AggregationPolicy, error) {
	if bufferSize != 0 && name != "buffered" {
		return nil, fmt.Errorf("fl: BufferSize %d applies only to the buffered policy, not %q", bufferSize, name)
	}
	switch name {
	case "", "sync":
		if halfLife != 0 {
			return nil, fmt.Errorf("fl: StalenessHalfLife %v applies only to the buffered and semisync policies, not %q", halfLife, name)
		}
		return SyncRounds{}, nil
	case "buffered":
		return Buffered{K: bufferSize, StalenessHalfLife: halfLife}, nil
	case "semisync":
		return SemiSync{StalenessHalfLife: halfLife}, nil
	default:
		return nil, fmt.Errorf("fl: unknown aggregation policy %q (valid: sync, buffered, semisync)", name)
	}
}

// pendingUpdate is one trained local update in flight between an async
// dispatch and its aggregation. Training runs eagerly at dispatch time (the
// simulated duration is analytic, so the numeric result never depends on
// when the arrival event is processed); the event queue then delivers the
// finished update at its simulated arrival time.
type pendingUpdate struct {
	// report is the party's feedback record; aggregation stamps its
	// staleness (and, for an update-consuming selector, its Update).
	report PartyReport
	// update is the dispatch-time delta x_i − m^(v): by aggregation time the
	// global model has moved on.
	update tensor.Vec
	// weight is the FedAvg aggregation weight n_i.
	weight float64
	// version is the server model version at dispatch; staleness at
	// aggregation is the number of versions applied since.
	version int
	// arrival is the absolute simulated arrival time.
	arrival float64
	// wave links a masked update to its secure-aggregation cohort (nil when
	// masking is off); waveIdx is the party's member index within the wave.
	// maskDiscarded marks an arrival consumed without contributing — popped
	// after its wave settled (a SemiSync straggler whose window closed) or
	// rejected as non-finite — so the feedback layer can skip it.
	wave          *maskWave
	waveIdx       int
	maskDiscarded bool
}

// event is one scheduled arrival in the simulation queue.
type event struct {
	time float64
	// seq breaks time ties in push order, which is deterministic (pushes
	// happen on the policy goroutine in dispatch order), so the queue's pop
	// order is a pure function of the seed at every engine parallelism.
	seq uint64
	up  *pendingUpdate
}

// eventQueue is a binary min-heap of events ordered by (time, seq). A
// hand-rolled value heap instead of container/heap: no interface boxing, no
// per-push allocations once the backing slice has grown.
type eventQueue struct {
	items []event
}

func (q *eventQueue) len() int { return len(q.items) }

func (q *eventQueue) peek() event { return q.items[0] }

// less is the queue's total order: time, then push sequence.
func (q *eventQueue) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(e event) {
	q.items = append(q.items, e)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = event{} // drop the pointer for GC
	q.items = q.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.items) && q.less(l, smallest) {
			smallest = l
		}
		if r < len(q.items) && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}

// eventCore is the engine state shared by every aggregation policy: the
// global model and optimizer, the simulated clock and event queue, the
// worker pool with its per-worker model replicas and training scratch, the
// evaluator, and the per-cycle reusable buffers that keep the round loop
// allocation-free.
type eventCore struct {
	cfg  *Config
	res  *Result
	root *rng.Source
	// global is the architecture every replica is cloned from; the global
	// model's parameters live in globalParams, and each replica is set from
	// them (or from a snapshot of them) before use.
	global       model.Model
	globalParams tensor.Vec
	eval         evaluator
	sgd          model.SGDConfig
	pool         *parallel.Pool
	useDevices   bool
	paramBytes   int64
	dynState     []tensor.Vec // FedDyn h_i by party id, allocated at the party's first completion

	// Event-clock state. clock is the absolute simulated now; version counts
	// applied aggregations (the staleness reference); waves counts selection
	// waves — a sync round is one — which is also the root-RNG split cursor
	// (wave w draws from root.Split(w+1)).
	queue   eventQueue
	seq     uint64
	clock   float64
	version int
	waves   int

	// Per-worker training state: one model replica and one training scratch
	// per pool worker, lazily cloned, reused across all cycles.
	replicas  []model.Model
	scratches []model.TrainScratch

	// space is the deterministic party-to-shard mapping (Config.Shards),
	// read only to count round.ShardsTouched.
	space partition.Blocks

	// Reusable per-cycle scratch.
	seen         partySet // selectParties dedupe, sync coin-flip marks; clear between uses
	invited      []int    // dedupe output, reused
	completed    []int
	completedDur []float64 // sync device model: durations, parallel to completed
	stragglers   []int
	dispatched   []int            // async: parties dispatched this wave
	buffer       []*pendingUpdate // async: the cycle's arrivals, in pop order
	fb           RoundFeedback
	partyRngs    []rng.Source
	rngStates    [][4]uint64 // serialized partyRngs for ShardTransport waves
	locals       []model.LocalResult
	updates      []tensor.Vec
	weights      []float64
	delta        tensor.Vec // aggregation accumulator, len params

	// needsUpdates: the selector consumes PartyReport.Update and masking is
	// off. Asked once per run (UpdateConsumer answers are constant).
	needsUpdates bool
	// round is the cycle's history entry, written where each of its fields
	// happens: the policy sets Invited, Completed and RoundTime, the helpers
	// bump CommBytes, ShardsTouched, Rejected and MaskAborted, Run's
	// epilogue sets MeanLoss and maybeEval stamps Round and SimTime.
	round RoundStats

	// Update-vector recycling (DESIGN.md, "Update-vector lifetime"): free
	// holds parameter-dimension vectors ready for the next trained party;
	// spent collects the cycle's vectors whose last reader is the cycle, and
	// resetCycle moves them to free after the selector has observed. freeUps
	// recycles async pendingUpdate records the same way.
	free    []tensor.Vec
	spent   []tensor.Vec
	freeUps []*pendingUpdate

	// Per-cycle shard-locality accounting: which shards this cycle's
	// completed parties fell into (round.ShardsTouched counts them).
	shardMark []bool

	// priv is the privacy middleware state (nil when no stage is enabled).
	priv *privacyState

	// Async bookkeeping: which parties are reserved (training, or arrived
	// but not yet aggregated — their arrival event is or was queued), and
	// the selection/offline accumulators for the current aggregation
	// cycle. selectedMark/offlineMark dedupe the accumulators across the
	// cycle's waves, preserving the sync-mode feedback invariant that
	// Stragglers is a duplicate-free subset of Selected.
	inFlight      partySet
	inFlightCount int
	cycleSelected []int
	cycleOffline  []int
	selectedMark  partySet
	offlineMark   partySet
}

func newEventCore(cfg *Config) *eventCore {
	root := rng.New(cfg.Seed)
	global := cfg.Factory(root.Split(0xF0))
	cfg.Optimizer.Reset()

	c := &eventCore{
		cfg:          cfg,
		res:          &Result{RoundsToTarget: -1, TimeToTarget: -1},
		root:         root,
		global:       global,
		globalParams: global.Params(),
		sgd:          cfg.SGD.WithDefaults(),
		paramBytes:   int64(global.NumParams()) * 8,
		useDevices:   len(cfg.Parties) > 0 && cfg.Parties[0].Device != nil,
	}
	c.eval = evaluator{cfg: cfg, res: c.res, dim: len(c.globalParams)}
	if cfg.FedDynAlpha > 0 {
		c.dynState = make([]tensor.Vec, len(cfg.Parties))
	}
	// Pin the worker width for the whole run: Pool.Width() re-reads
	// GOMAXPROCS per call, and the per-worker replica table must not be
	// outgrown if the process's CPU budget changes mid-job.
	c.pool = parallel.New(parallel.New(cfg.Parallelism).Width())
	c.replicas = make([]model.Model, c.pool.Width())
	c.scratches = make([]model.TrainScratch, c.pool.Width())

	c.space = newShardSpace(len(cfg.Parties), cfg.Shards)
	c.seen = newPartySet(len(cfg.Parties))
	c.completed = make([]int, 0, cfg.PartiesPerRound)
	c.stragglers = make([]int, 0, cfg.PartiesPerRound)
	c.fb.Completed = make([]PartyReport, 0, cfg.PartiesPerRound)
	if uc, ok := cfg.Selector.(UpdateConsumer); ok {
		c.needsUpdates = uc.NeedsUpdates()
	}
	c.delta = tensor.NewVec(len(c.globalParams))
	c.shardMark = make([]bool, c.space.K)
	c.inFlight = newPartySet(len(cfg.Parties))
	c.selectedMark = newPartySet(len(cfg.Parties))
	c.offlineMark = newPartySet(len(cfg.Parties))
	if cfg.Privacy.Enabled() {
		c.priv = newPrivacyState(cfg, len(c.globalParams), c.pool)
	}
	// Under masking the server never sees individual updates — that is the
	// point — so update-consuming selectors fall back to their metadata-only
	// path regardless of what NeedsUpdates claims.
	if cfg.Privacy.Mask {
		c.needsUpdates = false
	}
	return c
}

// markShard records the shard of a completed party for the cycle's
// ShardsTouched metric. resetCycle clears the marks for the next cycle.
func (c *eventCore) markShard(id int) {
	sh := c.space.Of(id)
	if !c.shardMark[sh] {
		c.shardMark[sh] = true
		c.round.ShardsTouched++
	}
}

// poisonFreed, set only by tests, fills every update vector with NaN as it
// returns to the free list, so a vector recycled while something still reads
// it corrupts the run loudly instead of flipping a digest quietly.
var poisonFreed bool

// takeVec hands out a parameter-dimension vector from the free list, or a
// fresh one when the list is empty. Its contents are stale: the taker
// overwrites every coordinate.
func (c *eventCore) takeVec() tensor.Vec {
	if n := len(c.free); n > 0 {
		v := c.free[n-1]
		c.free = c.free[:n-1]
		return v
	}
	return tensor.NewVec(len(c.globalParams))
}

// newPending hands out a zeroed pendingUpdate record, recycled when possible.
func (c *eventCore) newPending() *pendingUpdate {
	if n := len(c.freeUps); n > 0 {
		up := c.freeUps[n-1]
		c.freeUps = c.freeUps[:n-1]
		return up
	}
	return new(pendingUpdate)
}

// resetCycle clears the per-aggregation-cycle accumulators and their dedupe
// marks. It is also the one point where update vectors return to the free
// list: it runs after the selector observed the cycle's feedback, whose
// reports' Update vectors are engine-owned (sync: taken from the free list;
// async: the buffered updates themselves). The cycle's arrival records
// recycle here too; an arrival's vector goes with it unless a mask wave
// still holds it as a contribution (settleMaskedWaves spends those).
func (c *eventCore) resetCycle() {
	for _, up := range c.buffer {
		if up.wave == nil || up.maskDiscarded {
			c.spent = append(c.spent, up.update)
		}
		*up = pendingUpdate{}
		c.freeUps = append(c.freeUps, up)
	}
	c.buffer = c.buffer[:0]
	if poisonFreed {
		for _, v := range c.spent {
			for i := range v {
				v[i] = math.NaN()
			}
		}
	}
	c.free = append(c.free, c.spent...)
	c.spent = c.spent[:0]
	for _, id := range c.cycleSelected {
		c.selectedMark.remove(id)
	}
	for _, id := range c.cycleOffline {
		c.offlineMark.remove(id)
	}
	c.cycleSelected = c.cycleSelected[:0]
	c.cycleOffline = c.cycleOffline[:0]
	clear(c.fb.Completed) // drop the reports' Update references
	c.fb.Completed = c.fb.Completed[:0]
	if c.priv != nil {
		c.priv.endCycle()
	}
	if c.round.ShardsTouched > 0 {
		clear(c.shardMark)
	}
	c.round = RoundStats{}
}

// cohortTarget maps the nominal selection target through the fault
// injector's flash-crowd hook, clamped to [1, parties].
func (c *eventCore) cohortTarget(step int) int {
	t := c.cfg.PartiesPerRound
	if c.cfg.Faults == nil {
		return t
	}
	t = c.cfg.Faults.CohortTarget(step, t)
	if t < 1 {
		t = 1
	}
	if n := len(c.cfg.Parties); t > n {
		t = n
	}
	return t
}

// unreachable reports whether invited party id cannot be reached at step:
// a chaos outage, or under the device model a failed availability draw from
// the party's own stream ar.Split(id+1). Either way the party never contacts
// the server. An outage draws nothing; per-party streams are independent, so
// no other party's draw shifts. It is the engine's only reachability check,
// for every policy.
func (c *eventCore) unreachable(step, id int, ar *rng.Source) bool {
	if c.cfg.Faults != nil && c.cfg.Faults.ForceOffline(step, id) {
		return true
	}
	return c.useDevices && !c.cfg.Parties[id].Device.Online(step, ar.Split(uint64(id)+1))
}

// duration is party id's simulated round time at step, the engine's only
// duration computation: local compute over its dataset plus model download
// and upload under the device model, or the legacy latency proxy Latency ×
// steps (the SGD steps it trained). The trace slot's latency multiplier and
// the fault injector's latency factor scale it; both are guarded against the
// neutral 1 so an unperturbed run's float bits cannot move.
func (c *eventCore) duration(step, id, steps int) float64 {
	p := c.cfg.Parties[id]
	var d float64
	if c.useDevices {
		d = p.Device.RoundDuration(p.NumSamples(), c.sgd.LocalEpochs, c.paramBytes)
		if m := p.Device.LatencyAt(step); m != 1 {
			d *= m
		}
	} else {
		d = p.Latency * float64(steps)
	}
	if c.cfg.Faults != nil {
		if f := c.cfg.Faults.LatencyFactor(step, id); f != 1 {
			d *= f
		}
	}
	return d
}

// admitUpdate is the fold boundary's finiteness gate: a non-finite update
// (NaN/Inf anywhere in the vector) is counted as rejected and kept out of
// the fold — one poisoned delta would otherwise corrupt the global model
// permanently through the server optimizer's moment state.
func (c *eventCore) admitUpdate(update tensor.Vec, weight float64) {
	if !isFiniteVec(update) {
		c.round.Rejected++
		return
	}
	c.updates = append(c.updates, update)
	c.weights = append(c.weights, weight)
}

// admitMasked is the masked fold boundary, for every policy: member idx of
// wave w has been processed. A non-finite delta cannot be encoded; it counts
// as rejected and leaves the member a dropout, whose masks settlement
// reconstructs like any other. A finite (clipped) delta contributes to the
// wave, which owns it from here: settleMaskedWaves spends it. Reports
// whether the delta contributed.
func (c *eventCore) admitMasked(w *maskWave, idx int, delta tensor.Vec, weight float64) bool {
	w.nProcessed++
	if !isFiniteVec(delta) {
		c.round.Rejected++
		return false
	}
	c.priv.contribute(w, idx, delta, weight)
	return true
}

// applyFold is the fold → noise → optimizer-apply sequence every policy ends
// its aggregation with. It folds the cycle's updates into c.delta in one
// pass, adds the privacy chain's noise calibrated to
// contributors, applies the delta through the server optimizer and bumps the
// model version; with nothing to fold it applies nothing and the version
// stays. global is c.globalParams when the updates are raw trained parameters
// (sync plaintext: the current global model is subtracted inside) and nil
// when they are deltas (async arrivals, decoded mask waves). A non-mean
// Config.Fold routes through the robust folds (robust.go).
func (c *eventCore) applyFold(global tensor.Vec, contributors int) {
	if len(c.updates) == 0 {
		return
	}
	t0 := c.cfg.Phases.start()
	defer c.cfg.Phases.stop(PhaseFold, t0)
	if c.cfg.Fold.Kind != FoldMean {
		RobustDeltaShardedInto(c.cfg.Fold, c.delta, global, c.updates, nil, 1)
	} else {
		WeightedAverageDeltaShardedInto(c.delta, global, c.updates, c.weights, nil, 1)
	}
	if c.priv != nil {
		c.priv.addNoise(c.delta, contributors)
	}
	c.cfg.Optimizer.Apply(c.globalParams, c.delta)
	c.version++
}

// nextWave advances the selection-wave cursor and returns the new wave's tag
// (its 1-based index, which doubles as the mask-stream round tag) and its
// root stream root.Split(tag).
func (c *eventCore) nextWave() (uint64, *rng.Source) {
	c.waves++
	return uint64(c.waves), c.root.Split(uint64(c.waves))
}

// decayLR applies the configured learning-rate decay at aggregation step r
// (0-based), matching the historical per-round schedule.
func (c *eventCore) decayLR(r int) {
	if c.cfg.LRDecayEvery > 0 && r > 0 && r%c.cfg.LRDecayEvery == 0 {
		c.sgd.LearningRate *= c.cfg.LRDecayFactor
	}
}

// selectParties invokes the selector for step round, dedupes the returned
// IDs into the reusable invited buffer (first occurrence wins, preserving
// order) and range-checks them. The returned slice is engine-owned scratch,
// valid until the next call.
func (c *eventCore) selectParties(round, target int) ([]int, error) {
	t0 := c.cfg.Phases.start()
	ids := c.cfg.Selector.Select(round, target)
	c.cfg.Phases.stop(PhaseSelect, t0)
	c.invited = c.invited[:0]
	for _, id := range ids {
		if id < 0 || id >= len(c.cfg.Parties) {
			// Unwind the seen bitmap before erroring.
			for _, ok := range c.invited {
				c.seen.remove(ok)
			}
			return nil, fmt.Errorf("fl: selector %q returned out-of-range party %d at round %d",
				c.cfg.Selector.Name(), id, round)
		}
		if !c.seen.has(id) {
			c.seen.add(id)
			c.invited = append(c.invited, id)
		}
	}
	for _, id := range c.invited {
		c.seen.remove(id)
	}
	return c.invited, nil
}

// trainBatch trains the given parties concurrently against the current
// global parameters and deposits results into c.locals (index-addressed, in
// ids order). The determinism contract: Split mutates the parent source, so
// every party stream is pre-split here in the sequential order
// (wr.Split(id+0x1000)); each worker then touches only its own replica, its
// own scratch, its own pre-split stream and its own slice index.
//
// Every deposit owns a vector taken from the free list before the wave
// starts: in process a worker trains its replica in place and copies the
// result into it, and a transport fills it. The caller hands each vector on
// to spent, or to a pending update, when it is done with the result.
//
// With a ShardTransport configured, the pre-split streams are serialized and
// the whole wave is handed to the transport instead — the streams, global
// parameters and SGD config pin the training to the identical computation,
// so the deposited results are bit-equal either way.
func (c *eventCore) trainBatch(ids []int, wr *rng.Source) error {
	t0 := c.cfg.Phases.start()
	defer c.cfg.Phases.stop(PhaseTrain, t0)
	c.partyRngs = c.partyRngs[:0]
	for _, id := range ids {
		c.partyRngs = append(c.partyRngs, *wr.Split(uint64(id) + 0x1000))
	}
	if cap(c.locals) < len(ids) {
		c.locals = make([]model.LocalResult, len(ids))
	}
	c.locals = c.locals[:len(ids)]
	for i := range c.locals {
		c.locals[i] = model.LocalResult{Params: c.takeVec()}
	}
	if t := c.cfg.Transport; t != nil {
		if cap(c.rngStates) < len(ids) {
			c.rngStates = make([][4]uint64, len(ids))
		}
		c.rngStates = c.rngStates[:len(ids)]
		for i := range c.partyRngs {
			c.rngStates[i] = c.partyRngs[i].State()
		}
		return t.TrainWave(TrainDispatch{
			IDs:       ids,
			RngStates: c.rngStates,
			Params:    c.globalParams,
			Version:   c.version,
			SGD:       c.sgd,
		}, c.locals)
	}
	pool := c.pool
	if c.waveWork(ids) < minPoolWave {
		pool = callerOnly
	}
	pool.ForEachWorker(len(ids), func(w, i int) {
		party := c.cfg.Parties[ids[i]]
		local := c.replicas[w]
		if local == nil {
			local = c.global.Clone()
			c.replicas[w] = local
		}
		local.SetParams(c.globalParams)
		out := c.locals[i].Params
		res := model.TrainLocalInPlace(local, party.Data, c.sgd, c.globalParams, &c.partyRngs[i], &c.scratches[w])
		copy(out, res.Params)
		res.Params = out
		c.locals[i] = res
	})
	return nil
}

// minPoolWave is the in-process training work, in parameter-sample passes
// (waveWork), below which a wave trains on the engine goroutine alone: at
// ≈ 1.5 ns a pass on the reference box, ≈ 25 µs, about what waking a pool
// helper and waiting for it costs when the other processors are idle — as
// they are between the evaluator's snapshots. The benchmark's fleet_async
// job trains 16-party ECG waves of 0.8–13k; a 6-party golden round is 19k.
// The width changes no result bit (see trainBatch).
const minPoolWave = 1 << 14

// callerOnly is the width-1 pool a wave below minPoolWave trains on.
var callerOnly = parallel.New(1)

// waveWork is the training work of a wave of the given parties: the samples
// they hold × local epochs × the model's parameters.
func (c *eventCore) waveWork(ids []int) int {
	samples := 0
	for _, id := range ids {
		samples += c.cfg.Parties[id].NumSamples()
	}
	return samples * c.sgd.LocalEpochs * len(c.globalParams)
}

// push schedules an arrival event for up.
func (c *eventCore) push(up *pendingUpdate) {
	c.queue.push(event{time: up.arrival, seq: c.seq, up: up})
	c.seq++
}

// maybeEval hands the global model to the evaluator when 0-based step hits
// the evaluation cadence (or is the final step): a copy of the parameters and
// the cycle's history entry c.round, stamped with its 1-based round and
// res.SimTime, which Run's epilogue keeps current. TimeToTarget is therefore
// comparable across aggregation modes — it is the simulated event-clock value
// at the evaluation that first crossed the target. The evaluator scores the
// snapshot while the next cycles run (evaluator.go).
func (c *eventCore) maybeEval(step int) {
	if (step+1)%c.cfg.EvalEvery != 0 && step != c.cfg.Rounds-1 {
		return
	}
	t0 := c.cfg.Phases.start()
	j := c.eval.take()
	copy(j.params, c.globalParams)
	j.stats = c.round
	j.stats.Round = step + 1
	j.stats.SimTime = c.res.SimTime
	c.eval.hand(j)
	c.cfg.Phases.stop(PhaseHandoff, t0)
}
