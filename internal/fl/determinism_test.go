package fl

import (
	"math"
	"testing"

	"flips/internal/device"
	"flips/internal/model"
	"flips/internal/rng"
)

// determinismConfig builds a fresh, fully independent FL job exercising the
// engine's stochastic surface: MLP factory, adaptive server optimizer, LR
// decay, biased straggler injection and per-party split RNG streams.
func determinismConfig(t *testing.T, seed uint64, parallelism int) Config {
	t.Helper()
	parties, test, spec := buildTestJob(t, seed, 16, 0.3)
	return Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.MLPFactory(spec.Dim, 8, len(spec.LabelNames)),
		Optimizer:       NewFedYogi(),
		Selector:        &rotatingSelector{n: len(parties)},
		Rounds:          6,
		PartiesPerRound: 8,
		SGD:             model.SGDConfig{LearningRate: 0.05, BatchSize: 16, LocalEpochs: 1},
		LRDecayEvery:    2,
		LRDecayFactor:   0.9,
		StragglerRate:   0.2,
		StragglerBias:   1.5,
		EvalEvery:       2,
		TargetAccuracy:  0.5,
		Parallelism:     parallelism,
		Seed:            seed,
	}
}

// bitsEqual compares float64s bit-for-bit, so NaN == NaN and -0 != 0 — the
// "byte-identical" standard the parallel engine is held to.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireIdenticalResults asserts two Results are byte-identical across the
// full observable surface: accuracy trajectory, per-label recalls,
// communication accounting, rounds-to-target and final parameters.
func requireIdenticalResults(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.History) != len(got.History) {
		t.Fatalf("history length %d vs %d", len(want.History), len(got.History))
	}
	for i := range want.History {
		w, g := want.History[i], got.History[i]
		if w.Round != g.Round || w.Invited != g.Invited || w.Completed != g.Completed || w.CommBytes != g.CommBytes {
			t.Fatalf("round %d stats diverge: %+v vs %+v", w.Round, w, g)
		}
		if !bitsEqual(w.Accuracy, g.Accuracy) {
			t.Fatalf("round %d accuracy %v vs %v", w.Round, w.Accuracy, g.Accuracy)
		}
		if !bitsEqual(w.MeanLoss, g.MeanLoss) {
			t.Fatalf("round %d mean loss %v vs %v", w.Round, w.MeanLoss, g.MeanLoss)
		}
		if !bitsEqual(w.RoundTime, g.RoundTime) || !bitsEqual(w.SimTime, g.SimTime) {
			t.Fatalf("round %d sim clock (%v, %v) vs (%v, %v)", w.Round, w.RoundTime, w.SimTime, g.RoundTime, g.SimTime)
		}
		if len(w.PerLabel) != len(g.PerLabel) {
			t.Fatalf("round %d per-label lengths %d vs %d", w.Round, len(w.PerLabel), len(g.PerLabel))
		}
		for c := range w.PerLabel {
			if !bitsEqual(w.PerLabel[c], g.PerLabel[c]) {
				t.Fatalf("round %d label %d recall %v vs %v", w.Round, c, w.PerLabel[c], g.PerLabel[c])
			}
		}
	}
	if !bitsEqual(want.PeakAccuracy, got.PeakAccuracy) {
		t.Fatalf("peak %v vs %v", want.PeakAccuracy, got.PeakAccuracy)
	}
	if want.RoundsToTarget != got.RoundsToTarget {
		t.Fatalf("rounds-to-target %d vs %d", want.RoundsToTarget, got.RoundsToTarget)
	}
	if !bitsEqual(want.SimTime, got.SimTime) {
		t.Fatalf("sim time %v vs %v", want.SimTime, got.SimTime)
	}
	if !bitsEqual(want.TimeToTarget, got.TimeToTarget) {
		t.Fatalf("time-to-target %v vs %v", want.TimeToTarget, got.TimeToTarget)
	}
	if want.TotalCommBytes != got.TotalCommBytes {
		t.Fatalf("comm bytes %d vs %d", want.TotalCommBytes, got.TotalCommBytes)
	}
	if len(want.FinalParams) != len(got.FinalParams) {
		t.Fatalf("param lengths %d vs %d", len(want.FinalParams), len(got.FinalParams))
	}
	for i := range want.FinalParams {
		if !bitsEqual(want.FinalParams[i], got.FinalParams[i]) {
			t.Fatalf("param %d: %v vs %v", i, want.FinalParams[i], got.FinalParams[i])
		}
	}
}

// TestParallelRunMatchesSequential is the central determinism regression of
// the parallel execution engine: for several seeds, a Parallelism: 8 run
// must produce a Result byte-identical to the Parallelism: 1 run of the same
// Config.
func TestParallelRunMatchesSequential(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		sequential, err := Run(determinismConfig(t, seed, 1))
		if err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
		parallel8, err := Run(determinismConfig(t, seed, 8))
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		requireIdenticalResults(t, sequential, parallel8)
	}
}

// TestParallelRunMatchesSequentialFedDyn covers the one per-party state the
// aggregation loop mutates (FedDyn's gradient-correction map), which must be
// touched only on the sequential fold.
func TestParallelRunMatchesSequentialFedDyn(t *testing.T) {
	t.Parallel()
	mk := func(par int) Config {
		cfg := determinismConfig(t, 11, par)
		cfg.Optimizer = &FedAvg{}
		cfg.FedDynAlpha = 0.1
		return cfg
	}
	sequential, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel8, err := Run(mk(8))
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, sequential, parallel8)
}

// TestParallelRunMatchesDefaultParallelism checks the zero-value Config path
// (Parallelism: 0 → GOMAXPROCS) is on the same determinism contract.
func TestParallelRunMatchesDefaultParallelism(t *testing.T) {
	t.Parallel()
	sequential, err := Run(determinismConfig(t, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Run(determinismConfig(t, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, sequential, auto)
}

// determinismDeviceConfig is determinismConfig with the device model active:
// a heterogeneous (lognormal) fleet under the given availability process, a
// deadline tight enough to produce stragglers, and the legacy straggler
// knobs off. Two calls with the same arguments build byte-identical jobs.
func determinismDeviceConfig(t *testing.T, seed uint64, parallelism int, avail device.Availability) Config {
	t.Helper()
	cfg := determinismConfig(t, seed, parallelism)
	cfg.StragglerRate = 0
	cfg.StragglerBias = 0
	dev := device.Lognormal()
	dev.Availability = avail
	AttachDevices(cfg.Parties, dev, rng.New(seed^0xDE71CE))
	cfg.Deadline = 0.3
	return cfg
}

// TestParallelDeviceRunMatchesSequential extends the central determinism
// regression to the device model: with deadlines and churn or diurnal
// availability active, a Parallelism: 8 run must stay byte-identical to the
// sequential run — including the simulated clock (RoundTime, SimTime,
// TimeToTarget).
func TestParallelDeviceRunMatchesSequential(t *testing.T) {
	t.Parallel()
	avails := []device.Availability{
		{Kind: device.AlwaysOn},
		{Kind: device.Churn, OnlineProb: 0.7},
		{Kind: device.Diurnal, Period: 8, MinProb: 0.2, MaxProb: 1.0},
	}
	for _, avail := range avails {
		for _, seed := range []uint64{5, 19} {
			sequential, err := Run(determinismDeviceConfig(t, seed, 1, avail))
			if err != nil {
				t.Fatalf("%v seed %d sequential: %v", avail.Kind, seed, err)
			}
			parallel8, err := Run(determinismDeviceConfig(t, seed, 8, avail))
			if err != nil {
				t.Fatalf("%v seed %d parallel: %v", avail.Kind, seed, err)
			}
			requireIdenticalResults(t, sequential, parallel8)
			if sequential.SimTime <= 0 {
				t.Fatalf("%v seed %d: device run accumulated no simulated time", avail.Kind, seed)
			}
		}
	}
}

// TestSmallWavesTrainOnTheCaller pins the small-wave rule: a wave whose
// training work is below minPoolWave runs on the engine goroutine alone —
// worker 0's replica, none other cloned — at any pool width, and deposits
// what a width-1 engine deposits.
func TestSmallWavesTrainOnTheCaller(t *testing.T) {
	cfg := goldenAsyncConfig(t)
	cfg.Parallelism = 2
	ids := []int{0, 1, 2}
	train := func(cfg Config) *eventCore {
		c := newEventCore(&cfg)
		if work := c.waveWork(ids); work >= minPoolWave {
			t.Fatalf("wave work %d is not below minPoolWave %d", work, minPoolWave)
		}
		if err := c.trainBatch(ids, rng.New(3)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	wide := train(cfg)
	if wide.pool.Width() != 2 || wide.replicas[1] != nil {
		t.Fatalf("a small wave on a width-%d pool cloned a second replica", wide.pool.Width())
	}
	cfg.Parallelism = 1
	narrow := train(cfg)
	for i := range ids {
		for j, v := range wide.locals[i].Params {
			if !bitsEqual(v, narrow.locals[i].Params[j]) {
				t.Fatalf("party %d param %d: %v at width 2, %v at width 1", ids[i], j, v, narrow.locals[i].Params[j])
			}
		}
	}
}

// wideWaveConfig is asyncConfig over a near-IID split (α = 10, every party
// holding 16 samples or more) and a 32-unit hidden layer: even a one-party
// wave's training work is above minPoolWave, so every wave of either async
// policy trains across the pool.
func wideWaveConfig(t *testing.T, seed uint64, parallelism int, policy AggregationPolicy) Config {
	t.Helper()
	cfg := asyncConfig(t, seed, parallelism, policy)
	parties, test, spec := buildTestJob(t, seed, 16, 10)
	cfg.Parties, cfg.Test = parties, test.Samples
	cfg.Factory = model.MLPFactory(spec.Dim, 32, len(spec.LabelNames))
	return cfg
}

// TestWideAsyncWavesMatchSequential is the width check the small-wave rule
// took from the async goldens, whose waves now train on the caller: with
// every possible wave above minPoolWave, a Buffered or SemiSync run at width
// 8 is byte-identical to the run at width 1.
func TestWideAsyncWavesMatchSequential(t *testing.T) {
	t.Parallel()
	for _, policy := range asyncPolicies() {
		for _, seed := range []uint64{3, 17} {
			probe := wideWaveConfig(t, seed, 8, policy)
			c := newEventCore(&probe)
			for id := range probe.Parties {
				if work := c.waveWork([]int{id}); work < minPoolWave {
					t.Fatalf("%T seed %d: party %d alone is a wave of work %d, below minPoolWave %d", policy, seed, id, work, minPoolWave)
				}
			}
			sequential, err := Run(wideWaveConfig(t, seed, 1, policy))
			if err != nil {
				t.Fatalf("%T seed %d sequential: %v", policy, seed, err)
			}
			parallel8, err := Run(wideWaveConfig(t, seed, 8, policy))
			if err != nil {
				t.Fatalf("%T seed %d parallel: %v", policy, seed, err)
			}
			requireIdenticalResults(t, sequential, parallel8)
		}
	}
}
