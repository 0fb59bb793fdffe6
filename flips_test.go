package flips

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"flips/internal/experiment"
	"flips/internal/fl"
	"flips/internal/rng"
)

func groupedLabelDists(groups, perGroup, labels int) [][]float64 {
	out := make([][]float64, 0, groups*perGroup)
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			ld := make([]float64, labels)
			ld[g%labels] = 100 + float64(i)
			ld[(g+1)%labels] = 2
			out = append(out, ld)
		}
	}
	return out
}

func TestNewMiddlewareClustersAndSelects(t *testing.T) {
	lds := groupedLabelDists(3, 8, 5)
	m, err := NewMiddleware(lds, MiddlewareOptions{Seed: 1, Repeats: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	n, err := m.NumClusters()
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 || n > 5 {
		t.Fatalf("found %d clusters", n)
	}
	sel, err := m.SelectParticipants(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 6 {
		t.Fatalf("selected %d", len(sel))
	}
	seen := map[int]bool{}
	for _, id := range sel {
		if id < 0 || id >= len(lds) || seen[id] {
			t.Fatalf("bad selection %v", sel)
		}
		seen[id] = true
	}
}

func TestNewMiddlewareRejectsEmpty(t *testing.T) {
	if _, err := NewMiddleware(nil, MiddlewareOptions{}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := NewPrivateMiddleware(nil, MiddlewareOptions{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestMiddlewareReportRoundOverprovisions(t *testing.T) {
	lds := groupedLabelDists(2, 6, 4)
	m, err := NewMiddleware(lds, MiddlewareOptions{Seed: 2, Repeats: 5})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := m.SelectParticipants(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ReportRound(0, sel, sel[2:], sel[:2]); err != nil {
		t.Fatal(err)
	}
	next, err := m.SelectParticipants(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(next) <= 4 {
		t.Fatalf("no over-provisioning: %d", len(next))
	}
}

func TestPrivateMiddlewareEndToEnd(t *testing.T) {
	lds := groupedLabelDists(3, 6, 5)
	m, err := NewPrivateMiddleware(lds, MiddlewareOptions{Seed: 3, Repeats: 5})
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.NumClusters()
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("TEE clustering found %d clusters", n)
	}
	sel, err := m.SelectParticipants(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 6 {
		t.Fatalf("selected %d", len(sel))
	}
	if err := m.ReportRound(0, sel, sel, nil); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.SelectParticipants(1, 6); err == nil {
		t.Fatal("selection succeeded after Close (TEE wipe)")
	}
}

func TestRunSimulationDefaults(t *testing.T) {
	res, err := RunSimulation(SimulationConfig{
		Dataset: "mit-bih-ecg",
		Rounds:  8,
		Parties: 24,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no history")
	}
	if res.NumClusters == 0 {
		t.Fatal("default FLIPS strategy should report clusters")
	}
	if res.TotalCommBytes <= 0 {
		t.Fatal("no communication accounted")
	}
	if res.TargetAccuracy != 0.65 {
		t.Fatalf("target %v", res.TargetAccuracy)
	}
}

// TestRunSimulationStreamMatchesHistory pins the streaming surface: the
// hook must observe exactly the rounds the final history reports, in order,
// with identical values.
func TestRunSimulationStreamMatchesHistory(t *testing.T) {
	var streamed []RoundPoint
	res, err := RunSimulationStream(SimulationConfig{
		Dataset: "mit-bih-ecg",
		Rounds:  8,
		Parties: 24,
		Seed:    5,
	}, func(p RoundPoint) {
		p.PerLabel = append([]float64(nil), p.PerLabel...)
		streamed = append(streamed, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.History) {
		t.Fatalf("streamed %d rounds, history has %d", len(streamed), len(res.History))
	}
	for i, p := range streamed {
		h := res.History[i]
		if p.Round != h.Round || p.Accuracy != h.Accuracy || p.SimTime != h.SimTime ||
			p.Invited != h.Invited || p.Completed != h.Completed {
			t.Fatalf("streamed round %d = %+v, history %+v", i, p, h)
		}
	}
}

// badConfigs are submissions Validate must refuse, one reason each.
var badConfigs = []SimulationConfig{
	{Dataset: "cifar-zillion"},
	{Dataset: "mit-bih-ecg", Aggregation: "bogus"},
	{Dataset: "mit-bih-ecg", Strategy: "psychic"},
	{Dataset: "mit-bih-ecg", DeviceProfile: "quantum"},
	{Dataset: "mit-bih-ecg", Fold: "geometric"},
	{Dataset: "mit-bih-ecg", FaultModel: "gremlins"},
	{Dataset: "mit-bih-ecg", FaultModel: "byzantine"}, // no FaultFraction
	{Dataset: "mit-bih-ecg", FaultFraction: 0.2},      // no FaultModel
	{Dataset: "mit-bih-ecg", FaultModel: "byzantine", FaultFraction: 2},
	{Dataset: "mit-bih-ecg", Mask: true, Fold: "median"},      // masking needs the mean fold
	{Dataset: "mit-bih-ecg", Mask: true, Algorithm: "feddyn"}, // masking excludes FedDyn state
	{Dataset: "mit-bih-ecg", Epsilon: 2},                      // DP noise needs a clip bound
	{Dataset: "mit-bih-ecg", ShareThreshold: 3},               // threshold is meaningless unmasked
	{Dataset: "mit-bih-ecg", Mask: true, Clip: 1 << 40},       // clip overflows fixed-point headroom
	{Dataset: "mit-bih-ecg", Rounds: -2},                      // zero is the default, negative a mistake
	{Dataset: "mit-bih-ecg", Parties: -3},
	{Dataset: "mit-bih-ecg", Parallelism: -4},
}

func TestValidateRejectsBadConfigsWithoutRunning(t *testing.T) {
	if err := (SimulationConfig{Dataset: "mit-bih-ecg", Rounds: 4, Parties: 8}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, cfg := range badConfigs {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v validated", cfg)
		}
	}
	// Masking alone is legal and Validate fills the default clip bound.
	if err := (SimulationConfig{Dataset: "mit-bih-ecg", Rounds: 4, Parties: 8, Mask: true}).Validate(); err != nil {
		t.Fatalf("masked config rejected: %v", err)
	}
}

// validateByBuilding is what Validate did while it still built the fleet:
// assemble the whole job, then ask the engine. It is the oracle for the
// fleet-free Validate.
func validateByBuilding(setting experiment.Setting, scale experiment.Scale) error {
	built, err := experiment.Build(setting, scale)
	if err != nil {
		return err
	}
	return built.Config.Validate()
}

// TestValidateAgreesWithBuild: the fleet-free Validate accepts exactly the
// jobs that building the fleet and validating the engine config accepts, and
// refuses the others with the same message.
func TestValidateAgreesWithBuild(t *testing.T) {
	accepted, rejected := 0, 0
	agree := func(name string, setting experiment.Setting, scale experiment.Scale) {
		t.Helper()
		want, got := validateByBuilding(setting, scale), experiment.Validate(setting, scale)
		if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
			t.Errorf("%s: Validate = %v, build + engine validation = %v", name, got, want)
		}
		if want == nil {
			accepted++
		} else {
			rejected++
		}
	}
	agreeConfig := func(name string, cfg SimulationConfig) {
		t.Helper()
		setting, scale, err := cfg.resolve()
		if err != nil {
			// Refused before either path is reached.
			if cfg.Validate() == nil {
				t.Errorf("%s: Validate accepted a config resolve refuses: %v", name, err)
			}
			return
		}
		agree(name, setting, scale)
	}

	for i, cfg := range badConfigs {
		agreeConfig(fmt.Sprintf("bad config %d", i), cfg)
	}
	small := SimulationConfig{Dataset: "mit-bih-ecg", Rounds: 2, Parties: 8, Seed: 3}
	with := func(edit func(*SimulationConfig)) SimulationConfig {
		c := small
		edit(&c)
		return c
	}
	for name, cfg := range map[string]SimulationConfig{
		"valid":                 small,
		"masked":                with(func(c *SimulationConfig) { c.Mask = true }),
		"masked headroom":       with(func(c *SimulationConfig) { c.Mask, c.Clip = true, 1<<22 }),
		"masked fleet headroom": with(func(c *SimulationConfig) { c.Mask, c.Clip, c.Parties = true, 1<<12, 3000 }),
		"nan alpha":             with(func(c *SimulationConfig) { c.Alpha = math.NaN() }),
		"negative alpha":        with(func(c *SimulationConfig) { c.Alpha = -0.3 }),
		"fraction above one":    with(func(c *SimulationConfig) { c.PartyFraction = 1.5 }),
		"negative fraction":     with(func(c *SimulationConfig) { c.PartyFraction = -0.1 }),
		"candidate factor":      with(func(c *SimulationConfig) { c.Strategy, c.CandidateFactor = "power-of-choice", 0.5 }),
		"unknown algorithm":     with(func(c *SimulationConfig) { c.Algorithm = "fedmagic" }),
		"buffer above cohort":   with(func(c *SimulationConfig) { c.Aggregation, c.BufferSize = "buffered", 5 }),
		"semisync no deadline":  with(func(c *SimulationConfig) { c.Aggregation = "semisync" }),
		"straggler rate":        with(func(c *SimulationConfig) { c.StragglerRate = 1 }),
		"negative shards":       with(func(c *SimulationConfig) { c.Shards = -1 }),

		// The benchmark's workloads (benchmark/workloads.go) at full scale.
		"paper_noniid": {
			Dataset: "femnist", Algorithm: "fedyogi", Strategy: "flips", Alpha: 0.3, PartyFraction: 0.2,
			DeviceProfile: "lognormal", Availability: "churn", PaperScale: true, Rounds: 105, Seed: 7,
		},
		"fleet_async, dist_fleet": fleetConfig(20000),
		"masked_sync": {
			Dataset: "mit-bih-ecg", Strategy: "flips", DeviceProfile: "lognormal", Availability: "churn",
			Deadline: 60, Mask: true, Clip: 1, Parties: 200, Rounds: 136, Seed: 7,
		},
		"server_mixed stragglers": {Dataset: "mit-bih-ecg", Strategy: "flips", StragglerRate: 0.1, Parties: 60, Rounds: 100},
		"server_mixed churn":      {Dataset: "mit-bih-ecg", Strategy: "oort", DeviceProfile: "lognormal", Availability: "churn", Parties: 60, Rounds: 100},
		"server_mixed buffered":   {Dataset: "mit-bih-ecg", Strategy: "random", Aggregation: "buffered", DeviceProfile: "lognormal", Parties: 60, Rounds: 100},
		"server_mixed femnist":    {Dataset: "femnist", Strategy: "flips", Parties: 60, Rounds: 100},
		"server_mixed byzantine": {
			Dataset: "mit-bih-ecg", Strategy: "flips", Fold: "median", FaultModel: "byzantine", FaultFraction: 0.2,
			DeviceProfile: "lognormal", Parties: 60, Rounds: 100,
		},
		"server_mixed semisync": {
			Dataset: "mit-bih-ecg", Strategy: "tifl", Aggregation: "semisync", DeviceProfile: "lognormal",
			Availability: "churn", Deadline: 60, Parties: 60, Rounds: 100,
		},
	} {
		agreeConfig(name, cfg)
	}

	// Shapes resolve never produces: fewer samples than parties, no parties.
	setting, scale, err := small.resolve()
	if err != nil {
		t.Fatal(err)
	}
	scale.TrainSize, scale.Parties = 10, 20
	agree("train size below parties", setting, scale)
	scale.TrainSize, scale.Parties = 100, 0
	agree("no parties", setting, scale)

	// A seeded sweep: every knob drawn from values that are mostly legal, so
	// the sweep lands on both sides of most rules.
	r := rng.New(20260928)
	for i := 0; i < 200; i++ {
		cfg := sweepConfig(r)
		agreeConfig(fmt.Sprintf("sweep %d (%+v)", i, cfg), cfg)
	}
	if accepted < 40 || rejected < 40 {
		t.Fatalf("cases lean one way: %d accepted, %d rejected", accepted, rejected)
	}
}

// sweepConfig draws one job with every knob taken from values that are mostly
// legal, so a sweep of them lands on both sides of most rules and reaches
// every selector, policy, fold, privacy stage, device profile and fault model.
func sweepConfig(r *rng.Source) SimulationConfig {
	cfg := SimulationConfig{
		Dataset:           pick(r, []string{"mit-bih-ecg", "mit-bih-ecg", "ham10000", "femnist", "fashion-mnist"}, []string{"cifar-zillion"}),
		Algorithm:         pick(r, []string{"", "fedavg", "fedprox", "fedyogi", "fedadam", "fedadagrad", "feddyn", "fedsgd"}, []string{"fedmagic"}),
		Strategy:          pick(r, append(Strategies(), ""), []string{"psychic"}),
		CandidateFactor:   pick(r, []float64{0, 0, 1, 3}, []float64{0.5, -1}),
		Alpha:             pick(r, []float64{0, 0.05, 0.6, 5}, []float64{-1, math.NaN(), math.Inf(1)}),
		PartyFraction:     pick(r, []float64{0, 0.01, 0.3, 1}, []float64{1.5, -0.1}),
		StragglerRate:     pick(r, []float64{0, 0, 0.2}, []float64{1, -0.1}),
		DeviceProfile:     pick(r, []string{"", "uniform", "lognormal", "lognormal"}, []string{"quantum"}),
		Availability:      pick(r, []string{"", "", "always-on", "churn", "diurnal"}, []string{"sometimes"}),
		Deadline:          pick(r, []float64{0, 0, 0, 2, 60}, []float64{-1}),
		Aggregation:       pick(r, []string{"", "", "sync", "buffered", "semisync"}, []string{"bogus"}),
		BufferSize:        pick(r, []int{0, 0, 1, 2}, []int{-1, 100}),
		StalenessHalfLife: pick(r, []float64{0, 0, 2}, []float64{-1}),
		Rounds:            pick(r, []int{0, 1, 3}, []int{-2}),
		Parties:           pick(r, []int{0, 1, 7, 40}, []int{-3}),
		Shards:            pick(r, []int{0, 0, 4, 1000}, []int{-1}),
		Fold:              pick(r, []string{"", "", "mean", "median", "trimmed-mean", "krum"}, []string{"geometric"}),
		FaultModel:        pick(r, []string{"", "", "", "none", "label-flip", "scaled", "sign-flip", "byzantine"}, []string{"gremlins"}),
		FaultScale:        pick(r, []float64{0, 0, 5}, []float64{-1}),
		Mask:              r.Float64() < 0.25,
		Clip:              pick(r, []float64{0, 0, 1, 1 << 30}, []float64{-1, 1 << 40}),
		Epsilon:           pick(r, []float64{0, 0, 0, 2}, []float64{-1}),
		ShareThreshold:    pick(r, []int{0, 0, 0, 2}, []int{-1}),
		Seed:              r.Uint64(),
	}
	if cfg.FaultModel != "" && cfg.FaultModel != "none" {
		cfg.FaultFraction = pick(r, []float64{0.2, 0.2, 1}, []float64{0, 2})
	}
	return cfg
}

// pick draws one of the legal values, or now and then an illegal one.
func pick[T any](r *rng.Source, legal, illegal []T) T {
	if r.Float64() < 0.04 {
		return illegal[r.Intn(len(illegal))]
	}
	return legal[r.Intn(len(legal))]
}

// TestOneBuildPerRepeat pins the cost of a submitted job's set-up: checking
// it and running one round of it allocates about what one fleet build does,
// so a build creeping back into Validate or in front of the repeat loop —
// each would add a whole build's bytes — fails here.
func TestOneBuildPerRepeat(t *testing.T) {
	cfg := fleetConfig(2000)
	setting, scale, err := cfg.resolve()
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	build := allocated(func() {
		if _, err := experiment.Build(setting, scale); err != nil {
			t.Fatal(err)
		}
	})
	job := allocated(func() {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := RunSimulationStream(cfg, func(RoundPoint) {}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one build %d B, Validate + one-round job %d B (%.2fx)", build, job, float64(job)/float64(build))
	if float64(job) >= 1.5*float64(build) {
		t.Fatalf("Validate + a one-round job allocated %d B, %.2fx one fleet build (%d B): more than one build per repeat", job, float64(job)/float64(build), build)
	}
}

// TestRunSimulationMasked pins the public secure-aggregation surface: a
// masked run over a churn fleet converges like its plaintext twin (the
// pairwise masks cancel in the cohort sum; dropout masks are reconstructed
// from Shamir shares), and MaskAborted is surfaced per round.
func TestRunSimulationMasked(t *testing.T) {
	mk := func(mask bool) SimulationConfig {
		return SimulationConfig{
			Dataset:        "mit-bih-ecg",
			DeviceProfile:  "lognormal",
			Availability:   "churn",
			Deadline:       3,
			Rounds:         10,
			Parties:        24,
			Mask:           mask,
			ShareThreshold: 2,
			Seed:           5,
		}
	}
	masked, err := RunSimulation(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	plainCfg := mk(false)
	plainCfg.ShareThreshold = 0
	plain, err := RunSimulation(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	dropouts := 0
	for _, h := range masked.History {
		if h.MaskAborted {
			continue
		}
		dropouts += h.Invited - h.Completed
	}
	if dropouts == 0 {
		t.Fatal("churn fleet produced no dropouts; the reconstruction path was not exercised")
	}
	// Fixed-point quantization perturbs each fold by ~2^-30 per coordinate;
	// over a short run the trajectories stay close, and the headline metric
	// must agree. (The masked run also clips at the default bound of 1, but
	// these deltas sit well inside it.)
	if masked.PeakAccuracy < plain.PeakAccuracy-0.02 {
		t.Fatalf("masked peak %.4f trails plaintext %.4f", masked.PeakAccuracy, plain.PeakAccuracy)
	}
}

func TestRunSimulationUnknownDataset(t *testing.T) {
	if _, err := RunSimulation(SimulationConfig{Dataset: "cifar-zillion"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunSimulationAllStrategies(t *testing.T) {
	for _, strategy := range Strategies() {
		res, err := RunSimulation(SimulationConfig{
			Dataset:  "fashion-mnist",
			Strategy: strategy,
			Rounds:   4,
			Parties:  20,
			Seed:     7,
		})
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if res.PeakAccuracy <= 0 {
			t.Fatalf("%s: peak %v", strategy, res.PeakAccuracy)
		}
	}
}

func TestRunTableWritesTable(t *testing.T) {
	var buf bytes.Buffer
	// Table 23 = fashion-mnist fedavg rounds (cheapest dataset at low scale
	// thanks to the halved budget), at the default laptop scale.
	if testing.Short() {
		t.Skip("full table at laptop scale")
	}
	if err := RunExperiment(&buf, "table23", ExperimentOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 23") || !strings.Contains(out, "fashion-mnist") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestRunTableRejectsBadID(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "table99", ExperimentOptions{Seed: 1}); err == nil {
		t.Fatal("bad table id accepted")
	}
}

func TestRunFigureRejectsBadID(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "fig-nope", ExperimentOptions{Seed: 1}); err == nil {
		t.Fatal("bad figure id accepted")
	}
}

func TestRunTournamentWritesRanking(t *testing.T) {
	var buf bytes.Buffer
	err := RunExperiment(&buf, "tournament", ExperimentOptions{
		Selectors: []string{"random", "loss-prop"},
		Rounds:    6,
		Parties:   16,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Selector tournament") || !strings.Contains(out, "clean arm reached by") {
		t.Fatalf("tournament output:\n%s", out)
	}
	if err := RunExperiment(&buf, "tournament", ExperimentOptions{Selectors: []string{"nope"}}); err == nil {
		t.Fatal("unknown selector accepted")
	}
	// An option the named experiment does not use is refused, not dropped.
	if err := RunExperiment(&buf, "het", ExperimentOptions{Selectors: []string{"random"}}); err == nil {
		t.Fatal("selector list accepted by an experiment that ignores it")
	}
}

func TestDatasetAndStrategyLists(t *testing.T) {
	if len(Datasets()) != 4 {
		t.Fatalf("datasets %v", Datasets())
	}
	if len(Strategies()) != 13 {
		t.Fatalf("strategies %v", Strategies())
	}
	exps := Experiments()
	if len(exps) != 24+10+8 || exps[0] != "table1" || exps[24] != "fig2" || exps[len(exps)-1] != "tee" {
		t.Fatalf("experiments %v", exps)
	}
}

// TestMiddlewareConcurrentRounds exercises the middleware the way an
// embedding FL system with concurrent aggregator goroutines would: many
// goroutines interleaving SelectParticipants, ReportRound and NumClusters on
// one Middleware. Run with -race, this is the regression gate for the
// documented "safe for concurrent use" contract.
func TestMiddlewareConcurrentRounds(t *testing.T) {
	t.Parallel()
	lds := groupedLabelDists(3, 8, 5)
	m, err := NewMiddleware(lds, MiddlewareOptions{Seed: 9, Repeats: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const goroutines = 8
	const roundsPer = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < roundsPer; r++ {
				round := g*roundsPer + r
				sel, err := m.SelectParticipants(round, 6)
				if err != nil {
					errs <- err
					return
				}
				if len(sel) < 6 {
					errs <- fmt.Errorf("round %d selected %d parties", round, len(sel))
					return
				}
				// Report a third of the selection as stragglers so the
				// adaptive over-provisioning state is exercised too.
				cut := len(sel) / 3
				if err := m.ReportRound(round, sel, sel[cut:], sel[:cut]); err != nil {
					errs <- err
					return
				}
				if _, err := m.NumClusters(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRunGridShortScale is the reduced-scale short-mode stand-in for
// TestRunTableWritesTable: the same grid-and-render path at a scale that
// finishes in well under a second.
func TestRunGridShortScale(t *testing.T) {
	t.Parallel()
	scale := experiment.Scale{Parties: 16, Rounds: 6, TrainSize: 800, TestSize: 200, Repeats: 1, EvalEvery: 3}
	var buf bytes.Buffer
	if err := experiment.Run(&buf, "table24", experiment.Options{Scale: scale, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 24") || !strings.Contains(out, "fashion-mnist") {
		t.Fatalf("table output:\n%s", out)
	}
}

// TestRunSimulationParallelismKnob checks the public Parallelism knob is
// honored end to end: parallel and sequential simulations of one seed agree
// on every reported number.
func TestRunSimulationParallelismKnob(t *testing.T) {
	t.Parallel()
	run := func(par int) *SimulationResult {
		res, err := RunSimulation(SimulationConfig{
			Dataset:     "mit-bih-ecg",
			Rounds:      6,
			Parties:     20,
			Parallelism: par,
			Seed:        13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if len(seq.History) != len(par.History) {
		t.Fatalf("history lengths %d vs %d", len(seq.History), len(par.History))
	}
	for i := range seq.History {
		if math.Float64bits(seq.History[i].Accuracy) != math.Float64bits(par.History[i].Accuracy) {
			t.Fatalf("round %d accuracy %v vs %v", seq.History[i].Round, seq.History[i].Accuracy, par.History[i].Accuracy)
		}
		if seq.History[i].CommBytes != par.History[i].CommBytes {
			t.Fatalf("round %d comm bytes differ", seq.History[i].Round)
		}
	}
	if math.Float64bits(seq.PeakAccuracy) != math.Float64bits(par.PeakAccuracy) ||
		seq.RoundsToTarget != par.RoundsToTarget ||
		seq.TotalCommBytes != par.TotalCommBytes {
		t.Fatalf("summaries diverge: %+v vs %+v", seq, par)
	}
}

// TestRunSimulationDeviceModel drives the device heterogeneity simulator
// through the public API: a lognormal fleet under churn with a deadline must
// produce simulated time, and the same config must be bit-reproducible with
// the simulated clock intact across parallelism widths.
func TestRunSimulationDeviceModel(t *testing.T) {
	t.Parallel()
	run := func(par int) *SimulationResult {
		res, err := RunSimulation(SimulationConfig{
			Dataset:       "mit-bih-ecg",
			DeviceProfile: "lognormal",
			Availability:  "churn",
			Deadline:      2,
			Rounds:        6,
			Parties:       20,
			Parallelism:   par,
			Seed:          17,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if seq.SimTime <= 0 {
		t.Fatalf("device simulation accumulated no time: %+v", seq)
	}
	if math.Float64bits(seq.SimTime) != math.Float64bits(par.SimTime) ||
		math.Float64bits(seq.TimeToTarget) != math.Float64bits(par.TimeToTarget) {
		t.Fatalf("simulated clock diverges across widths: %+v vs %+v", seq, par)
	}
	var prev float64
	for _, h := range seq.History {
		if h.SimTime < prev {
			t.Fatalf("SimTime not monotone at round %d", h.Round)
		}
		prev = h.SimTime
	}
}

func TestRunSimulationDeviceValidation(t *testing.T) {
	t.Parallel()
	if _, err := RunSimulation(SimulationConfig{Dataset: "mit-bih-ecg", DeviceProfile: "quantum"}); err == nil {
		t.Fatal("unknown device profile accepted")
	}
	if _, err := RunSimulation(SimulationConfig{Dataset: "mit-bih-ecg", Availability: "churn"}); err == nil {
		t.Fatal("availability without device profile accepted")
	}
	if _, err := RunSimulation(SimulationConfig{Dataset: "mit-bih-ecg", Deadline: 5}); err == nil {
		t.Fatal("deadline without device profile accepted")
	}
	if _, err := RunSimulation(SimulationConfig{Dataset: "mit-bih-ecg", DeviceProfile: "uniform", Availability: "sometimes"}); err == nil {
		t.Fatal("unknown availability accepted")
	}
}

// TestRunSimulationAggregationModes runs the public API through all three
// execution models and pins the cross-width determinism of the event clock.
func TestRunSimulationAggregationModes(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		aggregation string
		deadline    float64
	}{
		{"sync", 0},
		{"buffered", 0},
		{"semisync", 1},
	} {
		run := func(par int) *SimulationResult {
			res, err := RunSimulation(SimulationConfig{
				Dataset:       "mit-bih-ecg",
				DeviceProfile: "lognormal",
				Availability:  "churn",
				Aggregation:   tc.aggregation,
				Deadline:      tc.deadline,
				Rounds:        6,
				Parties:       20,
				Parallelism:   par,
				Seed:          23,
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.aggregation, err)
			}
			return res
		}
		seq, par := run(1), run(8)
		if seq.SimTime <= 0 {
			t.Fatalf("%s accumulated no simulated time", tc.aggregation)
		}
		if math.Float64bits(seq.SimTime) != math.Float64bits(par.SimTime) ||
			math.Float64bits(seq.PeakAccuracy) != math.Float64bits(par.PeakAccuracy) {
			t.Fatalf("%s diverges across widths: %+v vs %+v", tc.aggregation, seq, par)
		}
	}
}

// TestRunSimulationAggregationValidation pins the public-surface rejections
// of inconsistent async configurations.
func TestRunSimulationAggregationValidation(t *testing.T) {
	t.Parallel()
	if _, err := RunSimulation(SimulationConfig{Dataset: "mit-bih-ecg", Aggregation: "bogus"}); err == nil {
		t.Fatal("unknown aggregation accepted")
	}
	if _, err := RunSimulation(SimulationConfig{Dataset: "mit-bih-ecg", Aggregation: "semisync"}); err == nil {
		t.Fatal("semisync without deadline accepted")
	}
	if _, err := RunSimulation(SimulationConfig{
		Dataset: "mit-bih-ecg", DeviceProfile: "lognormal", Aggregation: "buffered", Deadline: 2,
	}); err == nil {
		t.Fatal("buffered with deadline accepted")
	}
	// Semi-sync windows are legal on the legacy (device-less) clock.
	if _, err := RunSimulation(SimulationConfig{
		Dataset: "mit-bih-ecg", Aggregation: "semisync", Deadline: 4, Rounds: 4, Parties: 12,
	}); err != nil {
		t.Fatalf("legacy-clock semisync rejected: %v", err)
	}
}

// TestRunAsyncWritesTable smoke-tests the public aggregation-mode sweep
// entry point.
// TestRunSimulationRobustFoldUnderFaults drives the chaos seam through the
// public API: a byzantine minority with a coordinate-wise median fold must
// run to completion, stay bit-reproducible across parallelism widths, and
// beat the plain mean under the same attack.
func TestRunSimulationRobustFoldUnderFaults(t *testing.T) {
	t.Parallel()
	run := func(fold string, par int) *SimulationResult {
		res, err := RunSimulation(SimulationConfig{
			Dataset:       "mit-bih-ecg",
			Algorithm:     "fedavg",
			Strategy:      "random",
			Fold:          fold,
			FaultModel:    "byzantine",
			FaultFraction: 0.25,
			Rounds:        8,
			Parties:       16,
			Parallelism:   par,
			Seed:          9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run("median", 1), run("median", 8)
	if len(seq.History) == 0 || seq.PeakAccuracy <= 0 || seq.PeakAccuracy > 1 {
		t.Fatalf("degenerate result: %+v", seq)
	}
	if math.Float64bits(seq.PeakAccuracy) != math.Float64bits(par.PeakAccuracy) {
		t.Fatalf("faulty run diverges across widths: %v vs %v", seq.PeakAccuracy, par.PeakAccuracy)
	}
	mean := run("", 1)
	if seq.PeakAccuracy <= mean.PeakAccuracy {
		t.Fatalf("median peak %.3f should beat mean peak %.3f under byzantine corruption",
			seq.PeakAccuracy, mean.PeakAccuracy)
	}
}

func TestRunChaosWritesTable(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("chaos sweep runs the full fault matrix at laptop scale")
	}
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "chaos", ExperimentOptions{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Chaos fault-matrix sweep", "byzantine-20", "krum", "clean"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunAsyncWritesTable(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("async sweep is a multi-second run at laptop scale")
	}
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "async", ExperimentOptions{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Aggregation-mode sweep", "buffered H=1", "semisync H=4"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunHeterogeneityWritesTable smoke-tests the public sweep entry point
// at a reduced scale via the short-mode path of the underlying runner.
func TestRunHeterogeneityWritesTable(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("het sweep is a multi-second run at laptop scale")
	}
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "het", ExperimentOptions{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "time to attain target accuracy") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

// fleetConfig is the benchmark's fleet_async job at a given population: a
// buffered oort run over a sharded lognormal churn fleet.
func fleetConfig(parties int) SimulationConfig {
	return SimulationConfig{
		Dataset: "mit-bih-ecg", Strategy: "oort", Aggregation: "buffered",
		DeviceProfile: "lognormal", Availability: "churn",
		Parties: parties, Rounds: 1, PartyFraction: 0.0016, Shards: 64,
		Parallelism: 1, Seed: 7,
	}
}

// resultDigest hashes everything a run reports, bit for bit: every history
// entry's counts and float stats (PerLabel included) and the headline result.
// finite reports whether every one of those floats is finite.
func resultDigest(res *SimulationResult) (digest uint64, finite bool) {
	h := fnv.New64a()
	finite = true
	ints := func(vs ...int64) {
		for _, v := range vs {
			fmt.Fprintf(h, "%d,", v)
		}
	}
	floats := func(vs ...float64) {
		for _, v := range vs {
			fmt.Fprintf(h, "%x,", math.Float64bits(v))
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
	}
	for _, p := range res.History {
		aborted := int64(0)
		if p.MaskAborted {
			aborted = 1
		}
		ints(int64(p.Round), int64(p.Invited), int64(p.Completed), p.CommBytes, int64(p.Rejected), aborted)
		floats(p.Accuracy, p.MeanLoss, p.RoundTime, p.SimTime)
		floats(p.PerLabel...)
	}
	ints(int64(res.RoundsToTarget), res.TotalCommBytes, int64(res.NumClusters))
	floats(res.PeakAccuracy, res.TimeToTarget, res.SimTime)
	return h.Sum64(), finite
}

// knownDiverging lists, by job JSON, the shapes DecodeSimulationConfig accepts
// whose model diverges to a non-finite stat. Validate cannot foresee them; a
// library caller gets the NaN the engine computed, and the job server fails
// the job visibly (server.TestDivergedJobFailsVisibly). A generated job that
// diverges and is not listed fails TestJobInvariance until it is understood
// and added here (or fixed).
var knownDiverging = []string{
	// Laplace scale 2·Clip/(n·ε) overflows the first noised fold.
	`{"Dataset":"mit-bih-ecg","Strategy":"random","Rounds":6,"Parties":12,"Seed":3,"Clip":1,"Epsilon":1e-300}`,
}

// TestJobInvariance is the seeded first step of ROADMAP 4(1)'s
// FuzzJobInvariance: small jobs (≤ 24 parties, ≤ 6 rounds) drawn by
// TestValidateAgreesWithBuild's generator — 64 draws in -short, 256 otherwise,
// of which about one in six survives every rule. Each job
// DecodeSimulationConfig accepts must run without panicking and report one
// result digest at Parallelism {1, 8} × Shards {1, 5}, and once more through
// DistRunner and two loopback shard workers — local training leaves the
// process there, and runs under TrainLocalInPlace instead of
// TrainLocalScratch; so must the known diverging shapes, NaNs included. A job
// the runner refuses is counted and reported.
func TestJobInvariance(t *testing.T) {
	t.Parallel()
	runner := startRunner(t, 2)
	refused := 0
	// invariant runs spec at the four shapes and over the workers, and
	// reports whether its stats were finite; ok is false when the decoder
	// refuses it.
	invariant := func(name string, spec []byte) (finite, ok bool) {
		cfg, err := DecodeSimulationConfig(bytes.NewReader(spec))
		if err != nil {
			return false, false
		}
		var first uint64
		for i, shape := range [][2]int{{1, 1}, {8, 1}, {1, 5}, {8, 5}} {
			cfg.Parallelism, cfg.Shards = shape[0], shape[1]
			res, err := RunSimulation(cfg)
			if err != nil {
				t.Errorf("%s %s: accepted, then failed at Parallelism %d Shards %d: %v", name, spec, shape[0], shape[1], err)
				return true, true
			}
			digest, fin := resultDigest(res)
			if i == 0 {
				first, finite = digest, fin
			} else if digest != first {
				t.Errorf("%s %s: digest %x at Parallelism %d Shards %d, %x at 1/1", name, spec, digest, shape[0], shape[1], first)
			}
		}
		res, err := runner.Run(cfg, nil)
		if err != nil {
			refused++
			t.Logf("%s %s: refused by DistRunner: %v", name, spec, err)
			runner = startRunner(t, 2) // a worker that refuses an assignment is dropped
		} else if digest, _ := resultDigest(res); digest != first {
			t.Errorf("%s %s: digest %x over 2 shard workers, %x in-process", name, spec, digest, first)
		}
		return finite, true
	}

	for _, spec := range knownDiverging {
		if finite, ok := invariant("known diverging shape", []byte(spec)); !ok || finite {
			t.Errorf("known diverging shape %s: accepted %v, finite %v — no longer diverges; drop it from the table", spec, ok, finite)
		}
	}

	draws := 256
	if testing.Short() {
		draws = 64
	}
	r := rng.New(20261003)
	ran := 0
	for i := 0; i < draws; i++ {
		cfg := sweepConfig(r)
		cfg.Parties = []int{6, 12, 24}[r.Intn(3)]
		cfg.Rounds = 2 + r.Intn(5)
		spec, err := json.Marshal(cfg)
		if err != nil {
			continue // a NaN or Inf knob: not expressible as a job at all
		}
		finite, ok := invariant(fmt.Sprintf("job %d", i), spec)
		if !ok {
			continue
		}
		ran++
		if !finite {
			t.Errorf("job %d %s: reports a non-finite stat; add it to knownDiverging once understood", i, spec)
		}
	}
	if ran < draws/8 {
		t.Fatalf("only %d of %d drawn jobs were accepted: the sweep no longer reaches the engine", ran, draws)
	}
	if refused > ran/4 {
		t.Fatalf("DistRunner refused %d of %d accepted jobs: the worker arm no longer covers the sweep", refused, ran)
	}
	t.Logf("%d of %d drawn jobs accepted and run, %d of them refused by DistRunner", ran, draws, refused)
}

// TestJobResume is the resume arm of ROADMAP 4(1): jobs drawn like
// TestJobInvariance's, their aggregation re-drawn so every policy is reached
// (buffered without a deadline, semisync with one) and the knobs no
// checkpoint may carry (masking, DP noise, FedDyn) drawn around. Each
// accepted job runs uninterrupted; then a second build of it runs to a
// random round on the evaluation cadence,
// checkpoints there, and the JSON round-tripped checkpoint resumes that same
// build — same parties, injector and live selector, since a checkpoint holds
// no selector state. The resumed run must report the uninterrupted run's
// history after the checkpoint, its result fields and its final parameters,
// bit for bit.
func TestJobResume(t *testing.T) {
	t.Parallel()
	draws := 256
	if testing.Short() {
		draws = 64
	}
	r := rng.New(20261015)
	resumed := map[string]int{}
	for i := 0; i < draws; i++ {
		cfg := sweepConfig(r)
		cfg.Parties = []int{6, 12, 24}[r.Intn(3)]
		cfg.Rounds = 3 + r.Intn(4)
		switch r.Intn(3) {
		case 0:
			cfg.Aggregation = "sync"
		case 1:
			cfg.Aggregation, cfg.Deadline = "buffered", 0
		default:
			cfg.Aggregation, cfg.Deadline = "semisync", []float64{2, 60}[r.Intn(2)]
		}
		// Masking, DP noise and FedDyn keep state no checkpoint holds, so
		// Validate refuses to resume them: draw around them.
		if cfg.Mask, cfg.Epsilon, cfg.ShareThreshold = false, 0, 0; cfg.Algorithm == "feddyn" {
			cfg.Algorithm = "fedavg"
		}
		spec, err := json.Marshal(cfg)
		if err != nil {
			continue
		}
		if cfg, err = DecodeSimulationConfig(bytes.NewReader(spec)); err != nil {
			continue
		}
		setting, scale, err := cfg.resolve()
		if err != nil {
			t.Fatal(err)
		}
		// On the evaluation cadence, the interrupted run's final-step
		// evaluation is one the uninterrupted run makes too.
		every := max(scale.EvalEvery, 1)
		if scale.Rounds <= every {
			continue
		}
		at := every * (1 + r.Intn((scale.Rounds-1)/every))
		build := func() fl.Config {
			built, err := experiment.Build(setting, scale)
			if err != nil {
				t.Fatalf("job %d %s: accepted, then failed to build: %v", i, spec, err)
			}
			return built.Config
		}

		full, err := fl.Run(build())
		if err != nil {
			t.Errorf("job %d %s: %v", i, spec, err)
			continue
		}
		job := build()
		head := job
		var cp *fl.Checkpoint
		head.Rounds, head.CheckpointEvery, head.CheckpointSink = at, at, func(c *fl.Checkpoint) { cp = c }
		if _, err := fl.Run(head); err != nil {
			t.Errorf("job %d %s: run to round %d: %v", i, spec, at, err)
			continue
		}
		blob, err := cp.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		job.Resume = new(fl.Checkpoint)
		if err := json.Unmarshal(blob, job.Resume); err != nil {
			t.Fatal(err)
		}
		tail, err := fl.Run(job)
		if err != nil {
			t.Errorf("job %d %s: resume at round %d: %v", i, spec, at, err)
			continue
		}

		after := func(res *fl.Result) uint64 {
			sr := &SimulationResult{
				PeakAccuracy: res.PeakAccuracy, RoundsToTarget: res.RoundsToTarget, TimeToTarget: res.TimeToTarget,
				SimTime: res.SimTime, TotalCommBytes: res.TotalCommBytes,
			}
			for _, p := range res.History {
				if p.Round > at {
					sr.History = append(sr.History, p)
				}
			}
			digest, _ := resultDigest(sr)
			return digest
		}
		if want, got := after(full), after(tail); got != want {
			t.Errorf("job %d %s: resumed at round %d, digest %x; uninterrupted %x", i, spec, at, got, want)
		}
		for k := range full.FinalParams {
			if k >= len(tail.FinalParams) || math.Float64bits(tail.FinalParams[k]) != math.Float64bits(full.FinalParams[k]) {
				t.Errorf("job %d %s: resumed at round %d, final parameters diverge at %d", i, spec, at, k)
				break
			}
		}
		resumed[cfg.Aggregation]++
	}
	t.Logf("resumed per policy: %v", resumed)
	if !testing.Short() {
		for _, policy := range []string{"sync", "buffered", "semisync"} {
			if resumed[policy] < 5 {
				t.Fatalf("only %d %s jobs resumed: the sweep no longer covers the policy", resumed[policy], policy)
			}
		}
	}
}
