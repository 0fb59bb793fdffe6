package fl

import (
	"fmt"

	"flips/internal/metrics"
	"flips/internal/model"
	"flips/internal/parallel"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// AggregationPolicy selects the engine's execution model: how local updates
// are scheduled, collected and folded into the global model. The engine is a
// discrete-event simulation core with one aggregation loop, in Run; a policy
// is the body of one aggregation cycle — everything between the learning-rate
// decay and the shared epilogue (clock, communication, selector feedback,
// evaluation, checkpoint):
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
	// Name identifies the policy ("sync", "buffered", "semisync") in
	// checkpoints and reports.
	Name() string

	// cycle runs aggregation step step: it dispatches, collects and folds,
	// leaves the cycle's feedback in c.fb, its bytes in c.cycleBytes and the
	// simulated clock at the cycle's end in c.clock, and reports what the
	// history entry needs.
	cycle(c *eventCore, step int) (cycleStats, error)
}

// cycleStats is what one aggregation cycle reports for its history entry.
type cycleStats struct {
	invited, completed  int
	meanLoss, roundTime float64
}

// PolicyByName maps a policy name to its implementation: "" or "sync" →
// SyncRounds, "buffered" → Buffered{K: bufferSize, StalenessHalfLife:
// halfLife}, "semisync" → SemiSync{StalenessHalfLife: halfLife}.
func PolicyByName(name string, bufferSize int, halfLife float64) (AggregationPolicy, error) {
	switch name {
	case "", "sync":
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
	party int
	// update is the dispatch-time delta x_i − m^(v): by aggregation time the
	// global model has moved on.
	update tensor.Vec
	// weight is the FedAvg aggregation weight n_i.
	weight float64
	// version is the server model version at dispatch; staleness at
	// aggregation is the number of versions applied since.
	version int
	// arrival is the absolute simulated arrival time; duration the party's
	// simulated round wall-clock (compute + transfer, or the legacy
	// latency × steps proxy).
	arrival, duration float64
	meanLoss, sqLoss  float64
	steps             int
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

// eventBefore is the queue's total order — time, then push sequence. It is
// the single source of truth for event ordering: the heap and the
// checkpoint serializer (captureAsyncState) both use it, so "InFlight in
// pop order" can never drift from the live queue's tie-breaks.
func eventBefore(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *eventQueue) less(i, j int) bool {
	return eventBefore(q.items[i], q.items[j])
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
// worker pool with its per-worker model replicas and training scratch, and
// the per-cycle reusable buffers that keep the round loop allocation-free.
type eventCore struct {
	cfg          *Config
	res          *Result
	root         *rng.Source
	global       model.Model
	globalParams tensor.Vec
	sgd          model.SGDConfig
	pool         *parallel.Pool
	useDevices   bool
	paramBytes   int64
	dynState     map[int]tensor.Vec

	// Event-clock state. clock is the absolute simulated now; version counts
	// applied aggregations (the staleness reference); waves counts selection
	// waves — a sync round is one — which is also the root-RNG split cursor
	// (wave w draws from root.Split(w+1), so checkpoint resume can
	// fast-forward the stream).
	queue   eventQueue
	seq     uint64
	clock   float64
	version int
	waves   int

	// Per-worker training state: one model replica and one training scratch
	// per pool worker, lazily cloned, reused across all cycles.
	replicas  []model.Model
	scratches []model.TrainScratch

	// space is the deterministic party-to-shard mapping (Config.Shards); all
	// dense per-party state below is shard-local and lazily allocated, so a
	// fleet-scale run only materializes the shards selection touches.
	space shardSpace

	// Reusable per-cycle scratch. The per-party structures are sharded:
	// reads of untouched shards return zeros without allocating, writes
	// fault in one shard-sized block.
	seen        shardedSlice[bool] // dedupe bitmap
	invited     []int              // dedupe output, reused
	durations   shardedSlice[float64]
	isStraggler shardedSlice[bool]
	completed   []int
	stragglers  []int
	dispatched  []int            // async: parties dispatched this wave
	buffer      []*pendingUpdate // async: the cycle's arrivals, in pop order
	fb          RoundFeedback
	partyRngs   []*rng.Source
	rngStates   [][4]uint64 // serialized partyRngs for ShardTransport waves
	locals      []model.LocalResult
	updates     []tensor.Vec
	weights     []float64
	delta       tensor.Vec // aggregation accumulator, len params

	// Per-cycle shard-locality accounting: which shards this cycle's
	// completed parties fell into (ShardsTouched in RoundStats).
	shardMark    []bool
	shardTouched int

	// cycleRejected counts this cycle's non-finite updates dropped at the
	// fold boundary (Rejected in RoundStats).
	cycleRejected int

	// priv is the privacy middleware state (nil when no stage is enabled);
	// cycleMaskAborted records a below-threshold wave abort for this cycle's
	// RoundStats.
	priv             *privacyState
	cycleMaskAborted bool

	// Async bookkeeping: which parties are reserved (training, or arrived
	// but not yet aggregated — their arrival event is or was queued), and
	// the selection/offline/bytes accumulators for the current aggregation
	// cycle. selectedMark/offlineMark dedupe the accumulators across the
	// cycle's waves, preserving the sync-mode feedback invariant that
	// Stragglers is a duplicate-free subset of Selected.
	inFlight      shardedSlice[bool]
	inFlightCount int
	cycleSelected []int
	cycleOffline  []int
	selectedMark  shardedSlice[bool]
	offlineMark   shardedSlice[bool]
	cycleBytes    int64
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
	if cfg.FedDynAlpha > 0 {
		c.dynState = make(map[int]tensor.Vec, len(cfg.Parties))
	}
	// Pin the worker width for the whole run: Pool.Width() re-reads
	// GOMAXPROCS per call, and the per-worker replica table must not be
	// outgrown if the process's CPU budget changes mid-job.
	c.pool = parallel.New(parallel.New(cfg.Parallelism).Width())
	c.replicas = make([]model.Model, c.pool.Width())
	c.scratches = make([]model.TrainScratch, c.pool.Width())

	c.space = newShardSpace(len(cfg.Parties), cfg.Shards)
	c.seen = newShardedSlice[bool](c.space)
	c.durations = newShardedSlice[float64](c.space)
	c.isStraggler = newShardedSlice[bool](c.space)
	c.completed = make([]int, 0, cfg.PartiesPerRound)
	c.stragglers = make([]int, 0, cfg.PartiesPerRound)
	c.fb = RoundFeedback{
		MeanLoss: make(map[int]float64, cfg.PartiesPerRound),
		SqLoss:   make(map[int]float64, cfg.PartiesPerRound),
		Duration: make(map[int]float64, cfg.PartiesPerRound),
	}
	c.delta = tensor.NewVec(len(c.globalParams))
	c.shardMark = make([]bool, c.space.count())
	c.inFlight = newShardedSlice[bool](c.space)
	c.selectedMark = newShardedSlice[bool](c.space)
	c.offlineMark = newShardedSlice[bool](c.space)
	if cfg.Privacy.Enabled() {
		c.priv = newPrivacyState(cfg, len(c.globalParams), c.pool)
	}
	return c
}

// markShard records the shard of a completed party for the cycle's
// ShardsTouched metric. resetCycle clears the marks for the next cycle.
func (c *eventCore) markShard(id int) {
	sh := c.space.shardOf(id)
	if !c.shardMark[sh] {
		c.shardMark[sh] = true
		c.shardTouched++
	}
}

// resetCycle clears the per-aggregation-cycle accumulators and their dedupe
// marks.
func (c *eventCore) resetCycle() {
	for _, id := range c.cycleSelected {
		c.selectedMark.set(id, false)
	}
	for _, id := range c.cycleOffline {
		c.offlineMark.set(id, false)
	}
	c.cycleSelected = c.cycleSelected[:0]
	c.cycleOffline = c.cycleOffline[:0]
	c.cycleBytes = 0
	c.cycleRejected = 0
	c.cycleMaskAborted = false
	if c.priv != nil {
		c.priv.endCycle()
	}
	if c.shardTouched > 0 {
		clear(c.shardMark)
		c.shardTouched = 0
	}
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

// admitUpdate is the fold boundary's finiteness gate: a non-finite update
// (NaN/Inf anywhere in the vector) is counted as rejected and kept out of
// the fold — one poisoned delta would otherwise corrupt the global model
// permanently through the server optimizer's moment state.
func (c *eventCore) admitUpdate(update tensor.Vec, weight float64) {
	if !isFiniteVec(update) {
		c.cycleRejected++
		return
	}
	c.updates = append(c.updates, update)
	c.weights = append(c.weights, weight)
}

// applyFold is the fold → noise → optimizer-apply sequence every policy ends
// its aggregation with. It folds the cycle's updates into c.delta across the
// configured shard count, adds the privacy chain's noise calibrated to
// contributors, applies the delta through the server optimizer and bumps the
// model version; with nothing to fold it applies nothing and the version
// stays. global is c.globalParams when the updates are raw trained parameters
// (sync plaintext: the current global model is subtracted inside) and nil
// when they are deltas (async arrivals, decoded mask waves). Either way the
// fold is bit-identical to the sequential one at every shard count and
// parallelism; a non-mean Config.Fold routes through the robust folds
// (robust.go), which carry the same invariance contract.
func (c *eventCore) applyFold(global tensor.Vec, contributors int) {
	if len(c.updates) == 0 {
		return
	}
	shards := foldShards(c.space.count(), len(c.delta))
	if c.cfg.Fold.Kind != FoldMean {
		RobustDeltaShardedInto(c.cfg.Fold, c.delta, global, c.updates, c.pool, shards)
	} else {
		WeightedAverageDeltaShardedInto(c.delta, global, c.updates, c.weights, c.pool, shards)
	}
	if c.priv != nil {
		c.priv.addNoise(c.delta, contributors)
	}
	c.cfg.Optimizer.Apply(c.globalParams, c.delta)
	c.global.SetParams(c.globalParams)
	c.version++
}

// resume restores a checkpoint: global parameters, optimizer moments,
// decayed learning rate and the result accounting, then the event-clock
// state — clock, model version, the wave cursor (fast-forwarding the root RNG
// stream by one split per consumed wave) and the in-flight updates. A sync
// checkpoint carries no event-clock state: a sync round is one wave and
// leaves nothing in flight, so it resumes as Waves = Round at its SimTime.
// Returns the aggregation step to resume at.
func (c *eventCore) resume(cp *Checkpoint) int {
	copy(c.globalParams, cp.GlobalParams)
	c.global.SetParams(c.globalParams)
	if adaptive, ok := c.cfg.Optimizer.(*Adaptive); ok {
		adaptive.SetState(cp.OptimizerMoment, cp.OptimizerSecondMoment)
	}
	c.sgd.LearningRate = cp.LearningRate
	c.res.TotalCommBytes = cp.TotalCommBytes
	c.res.PeakAccuracy = cp.PeakAccuracy
	c.res.RoundsToTarget = cp.RoundsToTarget
	c.res.SimTime = cp.SimTime
	// Pre-device checkpoints omit TimeToTarget (decoding to 0); the target
	// is reached in time iff it is reached in rounds, so the rounds counter
	// is authoritative.
	if c.res.RoundsToTarget >= 0 {
		c.res.TimeToTarget = cp.TimeToTarget
	}
	as := cp.Async
	if as == nil {
		as = &AsyncState{Waves: cp.Round, Clock: cp.SimTime}
	}
	c.clock, c.version, c.waves = as.Clock, as.Version, as.Waves
	for w := 0; w < as.Waves; w++ {
		c.root.Split(uint64(w) + 1)
	}
	for i := range as.InFlight {
		pu := &as.InFlight[i]
		c.push(&pendingUpdate{
			party:    pu.Party,
			update:   tensor.Vec(pu.Update).Clone(),
			weight:   pu.Weight,
			version:  pu.Version,
			arrival:  pu.Arrival,
			duration: pu.Duration,
			meanLoss: pu.MeanLoss,
			sqLoss:   pu.SqLoss,
			steps:    pu.Steps,
		})
		c.inFlight.set(pu.Party, true)
		c.inFlightCount++
	}
	return cp.Round
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
		factor := c.cfg.LRDecayFactor
		if factor <= 0 || factor > 1 {
			factor = 0.9
		}
		c.sgd.LearningRate *= factor
	}
}

// selectParties invokes the selector for step round, dedupes the returned
// IDs into the reusable invited buffer (first occurrence wins, preserving
// order) and range-checks them. The returned slice is engine-owned scratch,
// valid until the next call.
func (c *eventCore) selectParties(round, target int) ([]int, error) {
	ids := c.cfg.Selector.Select(round, target)
	c.invited = c.invited[:0]
	for _, id := range ids {
		if id < 0 || id >= len(c.cfg.Parties) {
			// Unwind the seen bitmap before erroring.
			for _, ok := range c.invited {
				c.seen.set(ok, false)
			}
			return nil, fmt.Errorf("fl: selector %q returned out-of-range party %d at round %d",
				c.cfg.Selector.Name(), id, round)
		}
		if !c.seen.get(id) {
			c.seen.set(id, true)
			c.invited = append(c.invited, id)
		}
	}
	for _, id := range c.invited {
		c.seen.set(id, false)
	}
	return c.invited, nil
}

// prepareFeedback resets the reusable feedback maps for a new aggregation
// cycle and re-gates Update materialization for the current selector.
func (c *eventCore) prepareFeedback(round int) (needsUpdates bool) {
	c.fb.Round = round
	clear(c.fb.MeanLoss)
	clear(c.fb.SqLoss)
	clear(c.fb.Duration)
	if c.fb.Staleness != nil {
		clear(c.fb.Staleness)
	}
	if uc, ok := c.cfg.Selector.(UpdateConsumer); ok {
		needsUpdates = uc.NeedsUpdates()
	}
	// Under masking the server never sees individual updates — that is the
	// point — so update-consuming selectors fall back to their metadata-only
	// path regardless of what NeedsUpdates claims.
	if c.priv != nil && c.priv.pc.Mask {
		needsUpdates = false
	}
	if !needsUpdates {
		c.fb.Update = nil
	} else if c.fb.Update == nil {
		c.fb.Update = make(map[int]tensor.Vec, cap(c.completed))
	} else {
		clear(c.fb.Update)
	}
	return needsUpdates
}

// trainBatch trains the given parties concurrently against the current
// global parameters and deposits results into c.locals (index-addressed, in
// ids order). The determinism contract: Split mutates the parent source, so
// every party stream is pre-split here in the sequential order
// (wr.Split(id+0x1000)); each worker then touches only its own replica, its
// own scratch, its own pre-split stream and its own slice index.
//
// With a ShardTransport configured, the pre-split streams are serialized and
// the whole wave is handed to the transport instead — the streams, global
// parameters and SGD config pin the training to the identical computation,
// so the deposited results are bit-equal either way.
func (c *eventCore) trainBatch(ids []int, wr *rng.Source) error {
	c.partyRngs = c.partyRngs[:0]
	for _, id := range ids {
		c.partyRngs = append(c.partyRngs, wr.Split(uint64(id)+0x1000))
	}
	if cap(c.locals) < len(ids) {
		c.locals = make([]model.LocalResult, len(ids))
	}
	c.locals = c.locals[:len(ids)]
	if t := c.cfg.Transport; t != nil {
		if cap(c.rngStates) < len(ids) {
			c.rngStates = make([][4]uint64, len(ids))
		}
		c.rngStates = c.rngStates[:len(ids)]
		for i, r := range c.partyRngs {
			c.rngStates[i] = r.State()
		}
		return t.TrainWave(TrainDispatch{
			IDs:       ids,
			RngStates: c.rngStates,
			Params:    c.globalParams,
			Version:   c.version,
			SGD:       c.sgd,
		}, c.locals)
	}
	c.pool.ForEachWorker(len(ids), func(w, i int) {
		party := c.cfg.Parties[ids[i]]
		local := c.replicas[w]
		if local == nil {
			local = c.global.Clone()
			c.replicas[w] = local
		}
		local.SetParams(c.globalParams)
		c.locals[i] = model.TrainLocalScratch(local, party.Data, c.sgd, c.globalParams, c.partyRngs[i], &c.scratches[w])
	})
	return nil
}

// push schedules an arrival event for up.
func (c *eventCore) push(up *pendingUpdate) {
	c.queue.push(event{time: up.arrival, seq: c.seq, up: up})
	c.seq++
}

// maybeEval evaluates the global model and appends a history entry when
// 0-based step hits the evaluation cadence (or is the final step). SimTime
// is read from res.SimTime, which Run's epilogue keeps current; TimeToTarget
// is therefore comparable across aggregation modes — it is the simulated
// event-clock value at the evaluation that first crossed the target.
func (c *eventCore) maybeEval(step int, st cycleStats) {
	if (step+1)%c.cfg.EvalEvery != 0 && step != c.cfg.Rounds-1 {
		return
	}
	stats := RoundStats{
		Round:         step + 1,
		Invited:       st.invited,
		Completed:     st.completed,
		CommBytes:     c.cycleBytes,
		MeanLoss:      st.meanLoss,
		RoundTime:     st.roundTime,
		SimTime:       c.res.SimTime,
		ShardsTouched: c.shardTouched,
		Rejected:      c.cycleRejected,
		MaskAborted:   c.cycleMaskAborted,
	}
	correct, total := metrics.ShardedClassCounts(c.global, c.cfg.Test, c.cfg.NumClasses, c.pool)
	stats.Accuracy = metrics.BalancedAccuracyFromCounts(correct, total)
	stats.PerLabel = metrics.PerLabelRecallFromCounts(correct, total)
	c.res.History = append(c.res.History, stats)
	if c.cfg.OnRound != nil {
		c.cfg.OnRound(stats)
	}
	if stats.Accuracy > c.res.PeakAccuracy {
		c.res.PeakAccuracy = stats.Accuracy
	}
	if c.cfg.TargetAccuracy > 0 && c.res.RoundsToTarget < 0 && stats.Accuracy >= c.cfg.TargetAccuracy {
		c.res.RoundsToTarget = step + 1
		c.res.TimeToTarget = c.res.SimTime
	}
}

// maybeCheckpoint emits a checkpoint when 0-based step hits the checkpoint
// cadence. Every policy but SyncRounds, whose rounds leave nothing in flight,
// also snapshots the event-clock state (in-flight updates, wave cursor).
func (c *eventCore) maybeCheckpoint(step int, policy AggregationPolicy) {
	cfg := c.cfg
	if cfg.CheckpointEvery <= 0 || cfg.CheckpointSink == nil || (step+1)%cfg.CheckpointEvery != 0 {
		return
	}
	cp := &Checkpoint{
		Round:          step + 1,
		GlobalParams:   c.globalParams.Clone(),
		OptimizerName:  cfg.Optimizer.Name(),
		Aggregation:    policy.Name(),
		LearningRate:   c.sgd.LearningRate,
		TotalCommBytes: c.res.TotalCommBytes,
		PeakAccuracy:   c.res.PeakAccuracy,
		RoundsToTarget: c.res.RoundsToTarget,
		SimTime:        c.res.SimTime,
		TimeToTarget:   c.res.TimeToTarget,
		Seed:           cfg.Seed,
	}
	if adaptive, ok := cfg.Optimizer.(*Adaptive); ok {
		cp.OptimizerMoment, cp.OptimizerSecondMoment = adaptive.State()
	}
	if _, sync := policy.(SyncRounds); !sync {
		cp.Async = c.captureAsyncState()
	}
	cfg.CheckpointSink(cp)
}
