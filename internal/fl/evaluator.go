package fl

import (
	"fmt"
	"runtime"

	"flips/internal/metrics"
	"flips/internal/model"
	"flips/internal/tensor"
)

// evalQueueCap is how many model snapshots the engine may hand the evaluator
// before it waits for one to be scored: a run whose evaluation is slower than
// its cycles holds at most this many parameter copies, and its engine blocks
// at the next handoff instead of running further ahead.
const evalQueueCap = 4

// evalJob is one queued evaluation: a copy of the global parameters at the
// end of an evaluated step, and that step's history entry but for the
// accuracy the evaluator fills in.
type evalJob struct {
	params tensor.Vec
	stats  RoundStats
}

// evalPanic carries an evaluation panic, with the evaluator's stack, to Run's
// caller goroutine, the way parallel.Pool carries a worker's.
type evalPanic struct {
	value any
	stack []byte
}

func (p *evalPanic) Error() string {
	return fmt.Sprintf("fl: evaluation panic: %v\n%s", p.value, p.stack)
}

// evaluator scores the run's model snapshots on the global test set on a
// goroutine of its own, so the next cycles select and train while a snapshot
// is evaluated (DESIGN.md, "One aggregation loop"). It is the only goroutine
// Run starts besides the worker pool's and the only caller of
// Config.OnRound. Between start and stop it owns the evaluation half of the
// Result: History, PeakAccuracy, RoundsToTarget and TimeToTarget.
//
// Snapshots are scored one at a time, in handoff order, by one model.Scorer,
// whose counts are ClassCounts', so every history bit is that of an
// evaluation run inline at the same step.
type evaluator struct {
	cfg    *Config
	res    *Result
	dim    int
	scorer *model.Scorer

	queue   chan *evalJob // engine → evaluator, in step order
	scored  chan *evalJob // evaluator → engine, for reuse
	exited  chan struct{} // closed when the evaluator goroutine returns
	failure *evalPanic    // written before exited closes

	// Engine side: records ready for the next handoff and how many records
	// exist.
	idle []*evalJob
	made int
}

// start launches the evaluator goroutine with a scorer of a clone of proto.
// From here on the evaluator writes the evaluation half of the result.
func (e *evaluator) start(proto model.Model) {
	e.scorer = model.NewScorer(proto, e.cfg.Test, e.cfg.NumClasses)
	e.queue = make(chan *evalJob, evalQueueCap)
	e.scored = make(chan *evalJob, evalQueueCap)
	e.exited = make(chan struct{})
	e.idle = make([]*evalJob, 0, evalQueueCap)
	go e.loop()
}

// loop scores queued snapshots until the queue closes. A panic ends it: the
// panic is recorded for the engine to raise, and nothing more is scored.
func (e *evaluator) loop() {
	defer close(e.exited)
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			e.failure = &evalPanic{value: r, stack: buf}
		}
	}()
	for j := range e.queue {
		e.score(j)
		e.scored <- j
	}
}

// score evaluates one snapshot and does what an evaluated step does to the
// result: append the history entry, stream it, and advance the peak and the
// first target crossing, stamped with the step's simulated clock.
func (e *evaluator) score(j *evalJob) {
	t0 := e.cfg.Phases.start()
	correct, total := e.scorer.Counts(j.params)
	e.cfg.Phases.stop(PhaseScore, t0)
	st := j.stats
	st.Accuracy = metrics.BalancedAccuracyFromCounts(correct, total)
	st.PerLabel = metrics.PerLabelRecallFromCounts(correct, total)
	e.res.History = append(e.res.History, st)
	if e.cfg.OnRound != nil {
		e.cfg.OnRound(st)
	}
	if st.Accuracy > e.res.PeakAccuracy {
		e.res.PeakAccuracy = st.Accuracy
	}
	if e.cfg.TargetAccuracy > 0 && e.res.RoundsToTarget < 0 && st.Accuracy >= e.cfg.TargetAccuracy {
		e.res.RoundsToTarget = st.Round
		e.res.TimeToTarget = st.SimTime
	}
}

// take returns a record for the next handoff: an idle one, a new one while
// fewer than evalQueueCap exist, and otherwise the next one the evaluator
// hands back, waiting for it. A panic of the evaluator is raised here.
func (e *evaluator) take() *evalJob {
	select {
	case <-e.exited: // before stop, only a panic ends the evaluator
		e.raise()
	default:
	}
	if len(e.idle) == 0 {
		if e.made < evalQueueCap {
			e.made++
			return &evalJob{params: tensor.NewVec(e.dim)}
		}
		e.reclaim()
	}
	j := e.idle[len(e.idle)-1]
	e.idle = e.idle[:len(e.idle)-1]
	return j
}

// hand queues a filled record. It never blocks: at most evalQueueCap records
// exist, and the queue holds that many.
func (e *evaluator) hand(j *evalJob) {
	e.queue <- j
}

// reclaim waits for the evaluator to hand back one scored record and keeps it
// for reuse, or raises the evaluator's panic. Called only while a record is
// queued or being scored, so the evaluator is scoring or has panicked scoring
// it, and one of the two happens.
func (e *evaluator) reclaim() {
	select {
	case j := <-e.scored:
		e.idle = append(e.idle, j)
	case <-e.exited:
		e.raise()
	}
}

// stop closes the queue, waits for the evaluator to score what is queued and
// exit, and raises its panic if it had one. Run defers it, so the evaluator
// is joined on every return path; calls after the first do nothing.
func (e *evaluator) stop() {
	if e.queue == nil {
		return
	}
	close(e.queue)
	<-e.exited
	e.queue = nil
	e.raise()
}

// raise re-panics the evaluator's recorded panic on the calling goroutine,
// once. Only called after exited closed, which orders the failure write
// before this read.
func (e *evaluator) raise() {
	if f := e.failure; f != nil {
		e.failure = nil
		panic(f)
	}
}
