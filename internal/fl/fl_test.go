package fl

import (
	"math"
	"testing"

	"flips/internal/dataset"
	"flips/internal/model"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// fixedSelector always returns the same parties (test double). It retains
// every observed feedback, so it snapshots the engine-owned maps/slices per
// the RoundFeedback ownership contract. Setting needUpdates exercises the
// UpdateConsumer capability.
type fixedSelector struct {
	ids         []int
	needUpdates bool
	observed    []RoundFeedback
}

func (f *fixedSelector) Name() string { return "fixed" }

func (f *fixedSelector) Select(_, target int) []int {
	if target > len(f.ids) {
		target = len(f.ids)
	}
	return f.ids[:target]
}

func (f *fixedSelector) NeedsUpdates() bool { return f.needUpdates }

func (f *fixedSelector) Observe(fb RoundFeedback) {
	f.observed = append(f.observed, cloneFeedback(fb))
}

// cloneFeedback deep-copies a RoundFeedback: the engine reuses the feedback
// storage across rounds, so anything retained past Observe must be copied.
func cloneFeedback(fb RoundFeedback) RoundFeedback {
	out := fb
	out.Selected = append([]int(nil), fb.Selected...)
	out.Completed = append([]int(nil), fb.Completed...)
	out.Stragglers = append([]int(nil), fb.Stragglers...)
	out.MeanLoss = cloneFloatMap(fb.MeanLoss)
	out.SqLoss = cloneFloatMap(fb.SqLoss)
	out.Duration = cloneFloatMap(fb.Duration)
	if fb.Update != nil {
		out.Update = make(map[int]tensor.Vec, len(fb.Update))
		for id, u := range fb.Update {
			out.Update[id] = u.Clone()
		}
	}
	return out
}

func cloneFloatMap(m map[int]float64) map[int]float64 {
	if m == nil {
		return nil
	}
	out := make(map[int]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func buildTestJob(t testing.TB, seed uint64, parties int, alpha float64) ([]*Party, *dataset.Dataset, dataset.Spec) {
	t.Helper()
	ps, test, spec, err := GoldenJob(seed, parties, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return ps, test, spec
}

func TestBuildParties(t *testing.T) {
	parties, _, _ := buildTestJob(t, 1, 20, 0.3)
	if len(parties) != 20 {
		t.Fatalf("built %d parties", len(parties))
	}
	total := 0
	for i, p := range parties {
		if p.ID != i {
			t.Fatalf("party %d has ID %d", i, p.ID)
		}
		if p.NumSamples() == 0 {
			t.Fatalf("party %d has no data", i)
		}
		if int(p.LabelDist.Sum()) != p.NumSamples() {
			t.Fatalf("party %d label dist sum %v != %d samples", i, p.LabelDist.Sum(), p.NumSamples())
		}
		if p.Latency <= 0 {
			t.Fatalf("party %d latency %v", i, p.Latency)
		}
		total += p.NumSamples()
	}
	if total != 600 {
		t.Fatalf("parties own %d samples, want 600", total)
	}
}

func TestNormalizedLabelDists(t *testing.T) {
	parties, _, _ := buildTestJob(t, 2, 10, 0.3)
	for i, ld := range NormalizedLabelDists(parties) {
		if math.Abs(ld.Sum()-1) > 1e-9 {
			t.Fatalf("party %d normalized LD sums to %v", i, ld.Sum())
		}
	}
	// Normalization must not mutate the party's raw counts.
	if parties[0].LabelDist.Sum() <= 1 {
		t.Fatal("party label counts were mutated by normalization")
	}
}

func TestRunValidation(t *testing.T) {
	parties, test, spec := buildTestJob(t, 3, 10, 0.3)
	valid := Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        &fixedSelector{ids: []int{0, 1, 2}},
		Rounds:          2,
		PartiesPerRound: 3,
	}
	mutations := []struct {
		name string
		f    func(*Config)
	}{
		{"no parties", func(c *Config) { c.Parties = nil }},
		{"nil factory", func(c *Config) { c.Factory = nil }},
		{"nil optimizer", func(c *Config) { c.Optimizer = nil }},
		{"nil selector", func(c *Config) { c.Selector = nil }},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"bad participation", func(c *Config) { c.PartiesPerRound = 0 }},
		{"too many per round", func(c *Config) { c.PartiesPerRound = 99 }},
		{"bad straggler rate", func(c *Config) { c.StragglerRate = 1 }},
		{"bad classes", func(c *Config) { c.NumClasses = 0 }},
	}
	for _, m := range mutations {
		cfg := valid
		m.f(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error", m.name)
		}
	}
	if _, err := Run(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestRunImprovesAccuracy(t *testing.T) {
	parties, test, spec := buildTestJob(t, 4, 20, 1.0)
	sel := &fixedSelector{ids: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}
	res, err := Run(Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        sel,
		Rounds:          40,
		PartiesPerRound: 10,
		SGD:             model.SGDConfig{LearningRate: 0.1, BatchSize: 16, LocalEpochs: 2},
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakAccuracy < 0.5 {
		t.Fatalf("peak balanced accuracy %v after 40 rounds", res.PeakAccuracy)
	}
	first := res.History[0].Accuracy
	if res.PeakAccuracy <= first {
		t.Fatalf("no improvement: first %v peak %v", first, res.PeakAccuracy)
	}
}

func TestRunDeterministic(t *testing.T) {
	parties, test, spec := buildTestJob(t, 5, 12, 0.5)
	build := func() Config {
		return Config{
			Parties:         parties,
			Test:            test.Samples,
			NumClasses:      len(spec.LabelNames),
			Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
			Optimizer:       NewFedYogi(),
			Selector:        &fixedSelector{ids: []int{0, 1, 2, 3}},
			Rounds:          6,
			PartiesPerRound: 4,
			StragglerRate:   0.2,
			Seed:            42,
		}
	}
	a, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakAccuracy != b.PeakAccuracy || a.TotalCommBytes != b.TotalCommBytes {
		t.Fatal("identical configs diverged")
	}
	for i := range a.FinalParams {
		if a.FinalParams[i] != b.FinalParams[i] {
			t.Fatalf("final params diverge at %d", i)
		}
	}
}

func TestStragglersDropped(t *testing.T) {
	parties, test, spec := buildTestJob(t, 6, 20, 0.5)
	sel := &fixedSelector{ids: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, needUpdates: true}
	_, err := Run(Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        sel,
		Rounds:          5,
		PartiesPerRound: 10,
		StragglerRate:   0.2,
		StragglerBias:   2,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fb := range sel.observed {
		if len(fb.Stragglers) != 2 {
			t.Fatalf("round %d: %d stragglers, want 2 of 10", fb.Round, len(fb.Stragglers))
		}
		if len(fb.Completed)+len(fb.Stragglers) != len(fb.Selected) {
			t.Fatalf("round %d: completed+stragglers != selected", fb.Round)
		}
		for _, id := range fb.Completed {
			if _, ok := fb.MeanLoss[id]; !ok {
				t.Fatalf("round %d: missing loss for completed party %d", fb.Round, id)
			}
			if _, ok := fb.Update[id]; !ok {
				t.Fatalf("round %d: missing update for completed party %d", fb.Round, id)
			}
		}
		for _, id := range fb.Stragglers {
			if _, ok := fb.MeanLoss[id]; ok {
				t.Fatalf("round %d: straggler %d has loss feedback", fb.Round, id)
			}
		}
	}
}

func TestStragglerBiasTargetsSlowParties(t *testing.T) {
	parties, test, spec := buildTestJob(t, 7, 30, 0.5)
	ids := make([]int, 30)
	for i := range ids {
		ids[i] = i
	}
	sel := &fixedSelector{ids: ids}
	_, err := Run(Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        sel,
		Rounds:          40,
		PartiesPerRound: 30,
		StragglerRate:   0.2,
		StragglerBias:   4,
		EvalEvery:       40,
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stragLatency, allLatency float64
	var stragN int
	for _, p := range parties {
		allLatency += p.Latency
	}
	allLatency /= float64(len(parties))
	for _, fb := range sel.observed {
		for _, id := range fb.Stragglers {
			stragLatency += parties[id].Latency
			stragN++
		}
	}
	stragLatency /= float64(stragN)
	if stragLatency <= allLatency {
		t.Fatalf("biased stragglers mean latency %v not above population mean %v", stragLatency, allLatency)
	}
}

func TestCommBytesAccounting(t *testing.T) {
	parties, test, spec := buildTestJob(t, 8, 10, 0.5)
	m := model.NewLogReg(spec.Dim, len(spec.LabelNames))
	paramBytes := int64(m.NumParams()) * 8
	sel := &fixedSelector{ids: []int{0, 1, 2, 3}}
	res, err := Run(Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        sel,
		Rounds:          3,
		PartiesPerRound: 4,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * paramBytes * (4 + 4) // 4 downloads + 4 uploads per round
	if res.TotalCommBytes != want {
		t.Fatalf("comm bytes %d, want %d", res.TotalCommBytes, want)
	}
}

func TestRoundsToTarget(t *testing.T) {
	parties, test, spec := buildTestJob(t, 9, 20, 1.0)
	ids := make([]int, 20)
	for i := range ids {
		ids[i] = i
	}
	res, err := Run(Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        &fixedSelector{ids: ids},
		Rounds:          30,
		PartiesPerRound: 20,
		SGD:             model.SGDConfig{LearningRate: 0.1, BatchSize: 16, LocalEpochs: 2},
		TargetAccuracy:  0.4,
		Seed:            4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsToTarget < 1 {
		t.Fatalf("target 0.4 never reached (peak %v)", res.PeakAccuracy)
	}
	// History must show the accuracy at that round >= target.
	for _, h := range res.History {
		if h.Round == res.RoundsToTarget && h.Accuracy < 0.4 {
			t.Fatalf("round %d recorded accuracy %v below target", h.Round, h.Accuracy)
		}
	}
}

func TestEvalEvery(t *testing.T) {
	parties, test, spec := buildTestJob(t, 10, 10, 0.5)
	res, err := Run(Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        &fixedSelector{ids: []int{0, 1}},
		Rounds:          10,
		PartiesPerRound: 2,
		EvalEvery:       5,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 {
		t.Fatalf("history has %d entries, want 2 (rounds 5 and 10)", len(res.History))
	}
	if res.History[0].Round != 5 || res.History[1].Round != 10 {
		t.Fatalf("history rounds %d, %d", res.History[0].Round, res.History[1].Round)
	}
}

func TestLRDecayApplied(t *testing.T) {
	// Indirect but deterministic check: decay changes the trajectory.
	parties, test, spec := buildTestJob(t, 11, 10, 0.5)
	run := func(decayEvery int) tensor.Vec {
		res, err := Run(Config{
			Parties:         parties,
			Test:            test.Samples,
			NumClasses:      len(spec.LabelNames),
			Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
			Optimizer:       &FedAvg{},
			Selector:        &fixedSelector{ids: []int{0, 1, 2}},
			Rounds:          8,
			PartiesPerRound: 3,
			LRDecayEvery:    decayEvery,
			LRDecayFactor:   0.5,
			Seed:            6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalParams
	}
	a, b := run(0), run(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("LR decay had no effect on trajectory")
	}
}

func TestFedDynProducesFiniteParams(t *testing.T) {
	parties, test, spec := buildTestJob(t, 12, 10, 0.3)
	res, err := Run(Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        &fixedSelector{ids: []int{0, 1, 2, 3}},
		Rounds:          10,
		PartiesPerRound: 4,
		FedDynAlpha:     0.1,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.FinalParams {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("param %d is %v", i, v)
		}
	}
	if res.PeakAccuracy <= 0.2 {
		t.Fatalf("FedDyn run stuck at %v", res.PeakAccuracy)
	}
}

func TestWeightedAverageDelta(t *testing.T) {
	global := tensor.Vec{0, 0}
	updates := []tensor.Vec{{2, 0}, {0, 4}}
	weights := []float64{1, 3}
	delta := tensor.Vec{9, 9} // dirty: the fold zeroes it first
	WeightedAverageDeltaInto(delta, global, updates, weights)
	if math.Abs(delta[0]-0.5) > 1e-12 || math.Abs(delta[1]-3) > 1e-12 {
		t.Fatalf("delta %v", delta)
	}
	// Identical updates average to themselves regardless of weights.
	same := []tensor.Vec{{1, 1}, {1, 1}}
	WeightedAverageDeltaInto(delta, global, same, []float64{5, 1})
	if delta[0] != 1 || delta[1] != 1 {
		t.Fatalf("identical-update delta %v", delta)
	}
	// Empty and zero-weight cases are zero deltas.
	if WeightedAverageDeltaInto(delta, global, nil, nil); delta[0] != 0 || delta[1] != 0 {
		t.Fatal("empty update delta not zero")
	}
	delta[0] = 9
	if WeightedAverageDeltaInto(delta, global, same, []float64{0, 0}); delta[0] != 0 {
		t.Fatal("zero-weight delta not zero")
	}
}

func TestServerOptimizersZeroDelta(t *testing.T) {
	// A zero aggregated delta must leave the model unchanged (modulo
	// momentum state, which is also zero from a cold start).
	for _, opt := range []ServerOptimizer{&FedAvg{}, NewFedYogi(), NewFedAdam(), NewFedAdagrad()} {
		global := tensor.Vec{1, 2, 3}
		opt.Reset()
		opt.Apply(global, tensor.Vec{0, 0, 0})
		if global[0] != 1 || global[1] != 2 || global[2] != 3 {
			t.Fatalf("%s moved parameters on zero delta: %v", opt.Name(), global)
		}
	}
}

func TestAdaptiveOptimizerMovesTowardDelta(t *testing.T) {
	for _, opt := range []*Adaptive{NewFedYogi(), NewFedAdam(), NewFedAdagrad()} {
		global := tensor.NewVec(3)
		for i := 0; i < 20; i++ {
			opt.Apply(global, tensor.Vec{1, 1, 1})
		}
		for i, v := range global {
			if v <= 0 {
				t.Fatalf("%s: param %d is %v after positive deltas", opt.Name(), i, v)
			}
		}
	}
}

func TestAdaptiveOptimizerNames(t *testing.T) {
	if NewFedYogi().Name() != "fedyogi" {
		t.Fatal("yogi name")
	}
	if NewFedAdam().Name() != "fedadam" {
		t.Fatal("adam name")
	}
	if NewFedAdagrad().Name() != "fedadagrad" {
		t.Fatal("adagrad name")
	}
	if (&FedAvg{}).Name() != "fedavg" {
		t.Fatal("fedavg name")
	}
}

func TestAdagradSecondMomentMonotone(t *testing.T) {
	opt := NewFedAdagrad()
	global := tensor.NewVec(2)
	opt.Apply(global, tensor.Vec{1, -1})
	v1 := opt.vt.Clone()
	opt.Apply(global, tensor.Vec{0.5, 0.5})
	for i := range v1 {
		if opt.vt[i] < v1[i] {
			t.Fatalf("adagrad v_t decreased at %d", i)
		}
	}
}

func TestSelectorDuplicateInvitesDeduped(t *testing.T) {
	parties, test, spec := buildTestJob(t, 13, 6, 0.5)
	sel := &fixedSelector{ids: []int{0, 0, 1, 1, 2, 2}}
	res, err := Run(Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        sel,
		Rounds:          1,
		PartiesPerRound: 6,
		Seed:            8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.History[0].Invited != 3 {
		t.Fatalf("invited %d after dedupe, want 3", res.History[0].Invited)
	}
}

// badSelector returns an out-of-range party id (failure-injection double).
type badSelector struct{}

func (badSelector) Name() string             { return "bad" }
func (badSelector) Select(_, _ int) []int    { return []int{9999} }
func (badSelector) Observe(fb RoundFeedback) {}

func TestRunRejectsOutOfRangeSelection(t *testing.T) {
	parties, test, spec := buildTestJob(t, 14, 5, 0.5)
	_, err := Run(Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        badSelector{},
		Rounds:          1,
		PartiesPerRound: 2,
		Seed:            1,
	})
	if err == nil {
		t.Fatal("out-of-range selection accepted")
	}
}

// TestUpdateFeedbackGatedByCapability: the engine materializes
// RoundFeedback.Update only for selectors declaring the UpdateConsumer
// capability; everyone else sees a nil map and pays nothing for it.
func TestUpdateFeedbackGatedByCapability(t *testing.T) {
	parties, test, spec := buildTestJob(t, 21, 8, 0.5)
	run := func(needUpdates bool) *fixedSelector {
		sel := &fixedSelector{ids: []int{0, 1, 2, 3}, needUpdates: needUpdates}
		_, err := Run(Config{
			Parties:         parties,
			Test:            test.Samples,
			NumClasses:      len(spec.LabelNames),
			Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
			Optimizer:       &FedAvg{},
			Selector:        sel,
			Rounds:          3,
			PartiesPerRound: 4,
			Seed:            21,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	for _, fb := range run(false).observed {
		if fb.Update != nil {
			t.Fatalf("round %d: selector without NeedsUpdates received Update map", fb.Round)
		}
	}
	for _, fb := range run(true).observed {
		if len(fb.Update) != len(fb.Completed) {
			t.Fatalf("round %d: %d updates for %d completed parties", fb.Round, len(fb.Update), len(fb.Completed))
		}
		for id, u := range fb.Update {
			if len(u) == 0 {
				t.Fatalf("round %d: empty update for party %d", fb.Round, id)
			}
		}
	}
}

// TestPickStragglersZeroLatencyFallback: with an all-zero-latency pool the
// latency^bias weight mass is zero; the weighted path must fall back to a
// uniform draw without replacement rather than relying on Categorical's
// zero-mass with-replacement behavior, which produced duplicate stragglers.
func TestPickStragglersZeroLatencyFallback(t *testing.T) {
	t.Parallel()
	mkParties := func(latencies ...float64) []*Party {
		out := make([]*Party, len(latencies))
		for i, l := range latencies {
			out[i] = &Party{ID: i, Latency: l}
		}
		return out
	}
	check := func(t *testing.T, cfg Config, invited []int, wantK int) {
		t.Helper()
		for seed := uint64(1); seed <= 50; seed++ {
			got := pickStragglers(cfg, invited, rng.New(seed), nil)
			if len(got) != wantK {
				t.Fatalf("seed %d: %d stragglers, want %d", seed, len(got), wantK)
			}
			seen := map[int]bool{}
			valid := map[int]bool{}
			for _, id := range invited {
				valid[id] = true
			}
			for _, id := range got {
				if seen[id] {
					t.Fatalf("seed %d: duplicate straggler %d in %v", seed, id, got)
				}
				if !valid[id] {
					t.Fatalf("seed %d: straggler %d not invited", seed, id)
				}
				seen[id] = true
			}
		}
	}
	invited := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

	t.Run("all-zero-latency", func(t *testing.T) {
		t.Parallel()
		cfg := Config{
			Parties:       mkParties(0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
			StragglerRate: 0.5,
			StragglerBias: 2,
		}
		check(t, cfg, invited, 5)
	})

	t.Run("mass-exhausted-mid-draw", func(t *testing.T) {
		t.Parallel()
		// Only two parties carry weight; k=5 picks must drain them and then
		// fall back to uniform draws over the remaining zero-weight pool.
		cfg := Config{
			Parties:       mkParties(3, 0, 0, 0, 7, 0, 0, 0, 0, 0),
			StragglerRate: 0.5,
			StragglerBias: 2,
		}
		check(t, cfg, invited, 5)
	})
}
