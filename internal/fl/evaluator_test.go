package fl

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flips/internal/dataset"
	"flips/internal/metrics"
	"flips/internal/model"
	"flips/internal/rng"
)

// runInlineEval is Run with evaluation inline on the engine goroutine, as it
// was before the evaluator: the same loop, each evaluated step scored by
// metrics.ShardedClassCounts over the engine's pool before the next step
// runs. It is the reference the evaluator is held to.
func runInlineEval(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 1
	}
	policy := cfg.policy()
	c := newEventCore(&cfg)
	for step := 0; step < cfg.Rounds; step++ {
		c.decayLR(step)
		if err := policy.cycle(c, step); err != nil {
			return nil, err
		}
		c.res.SimTime = c.clock
		c.res.TotalCommBytes += c.round.CommBytes
		if n := len(c.fb.Completed); n > 0 {
			var lossSum float64
			for _, r := range c.fb.Completed {
				lossSum += r.MeanLoss
			}
			c.round.MeanLoss = lossSum / float64(n)
		}
		c.fb.Round = step
		cfg.Selector.Observe(c.fb)
		inlineEval(c, step)
		c.resetCycle()
	}
	c.res.FinalParams = c.globalParams
	return c.res, nil
}

// inlineEval is the engine's evaluation before it moved to the evaluator
// goroutine, kept as the reference.
func inlineEval(c *eventCore, step int) {
	if (step+1)%c.cfg.EvalEvery != 0 && step != c.cfg.Rounds-1 {
		return
	}
	stats := c.round
	stats.Round = step + 1
	stats.SimTime = c.res.SimTime
	c.global.SetParams(c.globalParams)
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

// awaitGoroutines fails t unless the goroutine count falls back to want
// within a second: a goroutine Run started must be gone once it returns or
// panics (a finished goroutine may take a moment to leave the count).
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before: the evaluator leaked", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEvaluatorMatchesInlineUnderBackPressure holds the evaluator to the
// inline reference when it is always behind: an OnRound that sleeps 2 ms on
// every evaluated step fills the snapshot queue, so the engine blocks at
// handoffs. The whole result, history and first target crossing included,
// must equal the reference's, bit for bit, under all three policies and at
// two widths; and OnRound must see the rounds in order, one call at a time.
func TestEvaluatorMatchesInlineUnderBackPressure(t *testing.T) {
	for _, policy := range []AggregationPolicy{SyncRounds{}, Buffered{K: 3, StalenessHalfLife: 2}, SemiSync{StalenessHalfLife: 2}} {
		for _, width := range []int{1, 4} {
			mk := func() Config {
				cfg := asyncConfig(t, 5, width, policy)
				if _, sync := policy.(SyncRounds); sync {
					cfg = determinismConfig(t, 5, width)
				}
				cfg.Rounds = 12
				cfg.EvalEvery = 1
				return cfg
			}
			// Aim the target at the reference's peak, so the first crossing,
			// and with it RoundsToTarget, lands mid-run.
			probe, err := runInlineEval(mk())
			if err != nil {
				t.Fatal(err)
			}
			target := probe.PeakAccuracy

			ref := mk()
			ref.TargetAccuracy = target
			want, err := runInlineEval(ref)
			if err != nil {
				t.Fatal(err)
			}
			if want.RoundsToTarget <= 1 {
				t.Fatalf("%T width %d: target %v first reached at round %d; the test needs a mid-run crossing", policy, width, target, want.RoundsToTarget)
			}
			t.Logf("%T width %d: target first reached at round %d of %d", policy, width, want.RoundsToTarget, ref.Rounds)

			cfg := mk()
			cfg.TargetAccuracy = target
			var inHook atomic.Int32
			var seen []int
			cfg.OnRound = func(st RoundStats) {
				if inHook.Add(1) != 1 {
					t.Errorf("%T width %d: OnRound called concurrently with itself", policy, width)
				}
				seen = append(seen, st.Round)
				time.Sleep(2 * time.Millisecond)
				inHook.Add(-1)
			}
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalResults(t, want, got)
			for i, r := range seen {
				if r != i+1 {
					t.Fatalf("%T width %d: OnRound saw rounds %v, want 1…%d in order", policy, width, seen, cfg.Rounds)
				}
			}
			if len(seen) != cfg.Rounds {
				t.Fatalf("%T width %d: %d OnRound calls, want %d", policy, width, len(seen), cfg.Rounds)
			}
		}
	}
}

// panickyModel is a model whose PredictBlock panics once a count of
// predicted samples shared by all its clones passes limit; with limit =
// k × len(test) and only evaluation predicting, the (k+1)-th evaluation
// panics at its first block. It states no Bounds, so the evaluator's scorer
// re-scores every sample at every evaluation.
type panickyModel struct {
	model.Model
	predicts *atomic.Int64
	limit    int64
}

func (m panickyModel) Clone() model.Model {
	return panickyModel{Model: m.Model.Clone(), predicts: m.predicts, limit: m.limit}
}

func (m panickyModel) PredictBlock(block []dataset.Sample) ([model.BlockSize]int, [model.BlockSize]float64) {
	if m.predicts.Add(int64(len(block))) > m.limit {
		panic("predict exploded")
	}
	return m.Model.PredictBlock(block)
}

// TestEvaluationPanicReachesCaller pins the evaluator's panic barrier: a
// panic while scoring a snapshot must surface on Run's caller goroutine,
// where the job server's per-job recover can catch it, and not on the
// evaluator goroutine, where it would take the whole process down. The
// evaluator must be gone once the panic has left Run.
func TestEvaluationPanicReachesCaller(t *testing.T) {
	cfg := determinismConfig(t, 3, 1)
	cfg.Rounds = 10
	cfg.EvalEvery = 1
	var predicts atomic.Int64
	inner := cfg.Factory
	cfg.Factory = func(r *rng.Source) model.Model {
		return panickyModel{Model: inner(r), predicts: &predicts, limit: int64(2 * len(cfg.Test))}
	}
	before := runtime.NumGoroutine()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_, err := Run(cfg)
		t.Errorf("Run returned (err %v) although its third evaluation panicked", err)
	}()
	ep, ok := recovered.(*evalPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *evalPanic", recovered, recovered)
	}
	if !strings.Contains(ep.Error(), "predict exploded") || !strings.Contains(ep.Error(), "panickyModel.PredictBlock") {
		t.Fatalf("panic lost its value or the evaluator's stack:\n%v", ep)
	}
	awaitGoroutines(t, before)
}

// failingSelector rotates like the goldens' selector and returns an
// out-of-range party at step failAt, which makes Run return an error there.
type failingSelector struct {
	rotatingSelector
	failAt int
}

func (s *failingSelector) Select(round, target int) []int {
	if round == s.failAt {
		return []int{-1}
	}
	return s.rotatingSelector.Select(round, target)
}

// TestRunJoinsEvaluatorOnError pins the join on Run's error path: with the
// evaluator behind (OnRound sleeps) when the selector fails at step 7, Run
// must still score what it queued before returning the error — every step
// before the failure streamed, none after Run returned — and leave no
// goroutine behind.
func TestRunJoinsEvaluatorOnError(t *testing.T) {
	cfg := determinismConfig(t, 4, 1)
	cfg.Rounds = 10
	cfg.EvalEvery = 1
	cfg.Selector = &failingSelector{rotatingSelector: rotatingSelector{n: len(cfg.Parties)}, failAt: 7}
	var returned, late atomic.Bool
	var calls atomic.Int32
	cfg.OnRound = func(RoundStats) {
		time.Sleep(5 * time.Millisecond)
		if returned.Load() {
			late.Store(true)
		}
		calls.Add(1)
	}
	before := runtime.NumGoroutine()
	_, err := Run(cfg)
	returned.Store(true)
	if err == nil || !strings.Contains(err.Error(), "out-of-range party -1 at round 7") {
		t.Fatalf("Run error %v, want the selector's out-of-range party at round 7", err)
	}
	// Only the evaluator calls OnRound, so once it is gone every call that
	// was ever going to happen has.
	awaitGoroutines(t, before)
	if late.Load() {
		t.Fatal("OnRound was called after Run returned")
	}
	if n := calls.Load(); n != 7 {
		t.Fatalf("OnRound saw %d rounds, want the 7 completed before the failure", n)
	}
}

// cancellingSelector rotates like the goldens' selector and cancels the
// run's context while it selects step cancelAt.
type cancellingSelector struct {
	rotatingSelector
	cancelAt int
	cancel   context.CancelFunc
}

func (s *cancellingSelector) Select(round, target int) []int {
	if round == s.cancelAt {
		s.cancel()
	}
	return s.rotatingSelector.Select(round, target)
}

// TestRunStopsWhenContextDone pins the engine's cancellation check: a
// context cancelled during step 7 lets step 7 finish and stops the run
// before step 8, with an error that wraps context.Canceled, every finished
// step streamed, none after Run returned, and no goroutine left behind.
func TestRunStopsWhenContextDone(t *testing.T) {
	cfg := determinismConfig(t, 4, 1)
	cfg.Rounds = 10
	cfg.EvalEvery = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Context = ctx
	cfg.Selector = &cancellingSelector{rotatingSelector: rotatingSelector{n: len(cfg.Parties)}, cancelAt: 7, cancel: cancel}
	var returned, late atomic.Bool
	var calls atomic.Int32
	cfg.OnRound = func(RoundStats) {
		time.Sleep(5 * time.Millisecond)
		if returned.Load() {
			late.Store(true)
		}
		calls.Add(1)
	}
	before := runtime.NumGoroutine()
	res, err := Run(cfg)
	returned.Store(true)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Run = %v, %v; want no result and an error wrapping context.Canceled", res, err)
	}
	awaitGoroutines(t, before)
	if late.Load() {
		t.Fatal("OnRound was called after Run returned")
	}
	if n := calls.Load(); n != 8 {
		t.Fatalf("OnRound saw %d rounds, want the 8 finished before the stop", n)
	}
}

// TestEvaluationAllocs pins the evaluator's steady state: a handoff reuses a
// scored record and its snapshot vector, so one evaluation allocates only its
// count slices and the entry's PerLabel slice.
func TestEvaluationAllocs(t *testing.T) {
	cfg := determinismConfig(t, 2, 1)
	c := newEventCore(&cfg)
	c.res.History = make([]RoundStats, 0, 1000)
	c.eval.start(c.global)
	defer c.eval.stop()
	allocs := testing.AllocsPerRun(100, func() {
		j := c.eval.take()
		copy(j.params, c.globalParams)
		j.stats = RoundStats{Round: 1}
		c.eval.hand(j)
		c.eval.reclaim()
	})
	if allocs > 3 {
		t.Fatalf("an evaluation allocates %v times, want at most 3 (correct, total, PerLabel)", allocs)
	}
}
