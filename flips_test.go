package flips

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"flips/internal/dataset"
	"flips/internal/experiment"
	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/selection"
)

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
	res, err := RunSimulationStream(context.Background(), SimulationConfig{
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
	{Dataset: "mit-bih-ecg", Aggregation: "semisync", Deadline: 2, BufferSize: 3}, // K is the buffered policy's
	{Dataset: "mit-bih-ecg", StalenessHalfLife: 2},                                // sync has no staleness
	{Dataset: "mit-bih-ecg", FaultScale: 5},                                       // no fault to scale
	{Dataset: "mit-bih-ecg", Deadline: 3},                                         // a sync deadline needs devices
	{Dataset: "mit-bih-ecg", Deadline: 3, Aggregation: "buffered"},                // buffered has no deadline
	{Dataset: "mit-bih-ecg", Strategy: "flips", Parties: 2e9},                     // 4e9 train samples: above the data bound
	{Dataset: "mit-bih-ecg", Parties: 5e7, Rounds: 1},                             // 1e8 train samples: above the data bound
}

func TestValidateRejectsBadConfigsWithoutRunning(t *testing.T) {
	if err := (SimulationConfig{Dataset: "mit-bih-ecg", Rounds: 4, Parties: 8}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	decode := func(cfg SimulationConfig) error {
		raw, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeSimulationConfig(bytes.NewReader(raw))
		return err
	}
	for _, cfg := range badConfigs {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v validated", cfg)
		}
		if err := decode(cfg); err == nil {
			t.Fatalf("config %+v decoded", cfg)
		}
	}
	for name, cfg := range map[string]SimulationConfig{
		// Masking alone is legal and Validate fills the default clip bound.
		"masked": {Dataset: "mit-bih-ecg", Rounds: 4, Parties: 8, Mask: true},
		// Semisync windows run on the legacy latency clock without devices.
		"device-less semisync": {Dataset: "mit-bih-ecg", Rounds: 4, Parties: 8, Aggregation: "semisync", Deadline: 3},
		// The largest fleet the scale sweep reproduces fits the data bound.
		"1M parties": {Dataset: "mit-bih-ecg", Strategy: "flips", Parties: 1e6},
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s config rejected: %v", name, err)
		}
		if err := decode(cfg); err != nil {
			t.Fatalf("%s config refused by the decoder: %v", name, err)
		}
	}
}

// validateByBuilding is what Validate did while it still built the fleet:
// assemble the whole job, then ask the engine about the fleet it got. It is
// the oracle for the fleet-free Validate.
func validateByBuilding(setting experiment.Setting, scale experiment.Scale) error {
	built, err := experiment.Build(setting, scale)
	if err != nil {
		return err
	}
	cfg := built.Config
	shape := fl.FleetShape{Parties: len(cfg.Parties), Devices: len(cfg.Parties) > 0 && cfg.Parties[0].Device != nil}
	for _, p := range cfg.Parties {
		shape.TotalWeight += float64(p.NumSamples())
	}
	return cfg.ValidateShape(shape)
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
		setting, scale, err := cfg.Resolve()
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
		"device-less semisync":  with(func(c *SimulationConfig) { c.Aggregation, c.Deadline = "semisync", 3 }),
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
	setting, scale, err := small.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	scale.TrainSize, scale.Parties = 10, 20
	agree("train size below parties", setting, scale)
	scale.TrainSize, scale.Parties = 100, 0
	agree("no parties", setting, scale)

	// A seeded sweep: every knob drawn from values that are mostly legal, so
	// the sweep lands on both sides of most rules and of the admission
	// bounds. A draw over a bound is judged by Validate alone: building it
	// is what the bound exists to prevent.
	r := rng.New(20260928)
	overWork, overBytes := 0, 0
	for i := 0; i < 256; i++ {
		cfg := sweepConfig(r)
		name := fmt.Sprintf("sweep %d (%+v)", i, cfg)
		work, err := cfg.Cost()
		switch {
		case err == nil && work > jobWorkBound:
			t.Errorf("%s: admitted at work %.3g, above the %.0e bound", name, work, jobWorkBound)
		case errors.Is(err, experiment.ErrOverBound):
			rejected++
			switch msg := err.Error(); {
			case strings.Contains(msg, "work term"):
				overWork++
				checkHalvingAdmits(t, name, cfg)
			case strings.Contains(msg, "byte term"), strings.Contains(msg, "data bound"):
				overBytes++
			default:
				t.Errorf("%s: refusal %q names no bound", name, msg)
			}
			continue
		}
		agreeConfig(name, cfg)
	}
	t.Logf("%d accepted, %d rejected (%d over the work bound, %d over the byte or data bound)", accepted, rejected, overWork, overBytes)
	if overWork == 0 || overBytes == 0 {
		t.Errorf("the sweep never crossed the work bound (%d) or the byte bound (%d)", overWork, overBytes)
	}
	if accepted < 40 || rejected < 40 {
		t.Fatalf("cases lean one way: %d accepted, %d rejected", accepted, rejected)
	}
}

// jobWorkBound is the admission work bound (experiment.maxJobWork).
const jobWorkBound = 2e12

// checkHalvingAdmits halves a work-refused job's Rounds until Validate admits
// it: rounds are the work term's one free factor, so no other refusal may
// appear on the way.
func checkHalvingAdmits(t *testing.T, name string, cfg SimulationConfig) {
	t.Helper()
	for cfg.Rounds > 1 {
		cfg.Rounds /= 2
		err := cfg.Validate()
		if err == nil {
			return
		}
		if !errors.Is(err, experiment.ErrOverBound) || !strings.Contains(err.Error(), "work term") {
			t.Errorf("%s: at %d rounds: %v", name, cfg.Rounds, err)
			return
		}
	}
	t.Errorf("%s: still over the work bound at one round", name)
}

// sweepConfig draws one job with every knob taken from values that are mostly
// legal, so a sweep of them lands on both sides of most rules and reaches
// every selector, policy, fold, privacy stage, device profile and fault model.
func sweepConfig(r *rng.Source) SimulationConfig {
	cfg := SimulationConfig{
		Dataset:         pick(r, []string{"mit-bih-ecg", "mit-bih-ecg", "ham10000", "femnist", "fashion-mnist"}, []string{"cifar-zillion"}),
		Algorithm:       pick(r, []string{"", "fedavg", "fedprox", "fedyogi", "fedadam", "fedadagrad", "feddyn", "fedsgd"}, []string{"fedmagic"}),
		Strategy:        pick(r, append(selection.Names(), ""), []string{"psychic"}),
		CandidateFactor: pick(r, []float64{0, 0, 1, 3}, []float64{0.5, -1}),
		Alpha:           pick(r, []float64{0, 0.05, 0.6, 5}, []float64{-1, math.NaN(), math.Inf(1)}),
		PartyFraction:   pick(r, []float64{0, 0.01, 0.3, 1}, []float64{1.5, -0.1}),
		StragglerRate:   pick(r, []float64{0, 0, 0.2}, []float64{1, -0.1}),
		DeviceProfile:   pick(r, []string{"", "uniform", "lognormal", "lognormal"}, []string{"quantum"}),
		Availability:    pick(r, []string{"", "", "always-on", "churn", "diurnal"}, []string{"sometimes"}),
		Deadline:        pick(r, []float64{0, 0, 0, 2, 60}, []float64{-1}),
		Aggregation:     pick(r, []string{"", "", "sync", "buffered", "semisync"}, []string{"bogus"}),
		Rounds:          pick(r, []int{0, 1, 3}, []int{-2}),
		Parties:         pick(r, []int{0, 1, 7, 40}, []int{-3}),
		Shards:          pick(r, []int{0, 0, 4, 1000}, []int{-1}),
		Fold:            pick(r, []string{"", "", "mean", "median", "trimmed-mean", "krum"}, []string{"geometric"}),
		FaultModel:      pick(r, []string{"", "", "", "none", "label-flip", "scaled", "sign-flip", "byzantine"}, []string{"gremlins"}),
		Mask:            r.Float64() < 0.25,
		Clip:            pick(r, []float64{0, 0, 1, 1 << 30}, []float64{-1, 1 << 40}),
		Epsilon:         pick(r, []float64{0, 0, 0, 2}, []float64{-1}),
		ShareThreshold:  pick(r, []int{0, 0, 0, 2}, []int{-1}),
		Seed:            r.Uint64(),
	}
	// A policy or fault knob is drawn with its policy or fault model;
	// elsewhere it is set only as one of the rare illegal draws, which
	// Validate refuses.
	switch cfg.Aggregation {
	case "buffered":
		cfg.BufferSize = pick(r, []int{0, 0, 1, 2}, []int{-1, 100})
		cfg.StalenessHalfLife = pick(r, []float64{0, 0, 2}, []float64{-1})
	case "semisync":
		cfg.BufferSize = pick(r, []int{0}, []int{2})
		cfg.StalenessHalfLife = pick(r, []float64{0, 0, 2}, []float64{-1})
	default:
		cfg.BufferSize = pick(r, []int{0}, []int{2})
		cfg.StalenessHalfLife = pick(r, []float64{0}, []float64{2})
	}
	if cfg.FaultModel != "" && cfg.FaultModel != "none" {
		cfg.FaultFraction = pick(r, []float64{0.2, 0.2, 1}, []float64{0, 2})
		cfg.FaultScale = pick(r, []float64{0, 0, 5}, []float64{-1})
	} else {
		cfg.FaultScale = pick(r, []float64{0}, []float64{5})
	}
	// One draw in eight is long: 2^16 rounds sit under the work bound, 2^27
	// mostly over it. One in eight is wide: 2^20 parties over six paper-scale
	// repeats need more than the byte bound, so a wide draw is never built,
	// and one or three rounds keep it under the work bound. No draw is both,
	// so halving a long draw's rounds reaches admission.
	switch r.Intn(8) {
	case 0:
		cfg.Rounds = []int{1 << 16, 1 << 27}[r.Intn(2)]
		cfg.PaperScale = r.Intn(4) == 0
	case 1:
		cfg.Parties, cfg.PaperScale = 1<<20, true
		cfg.Rounds = []int{1, 3}[r.Intn(2)]
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
	setting, scale, err := cfg.Resolve()
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
		if _, err := RunSimulationStream(context.Background(), cfg, func(RoundPoint) {}); err != nil {
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
	for _, strategy := range selection.Names() {
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
	if err := experiment.Run(&buf, "table23", experiment.Options{Scale: experiment.LaptopScale(), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 23") || !strings.Contains(out, "fashion-mnist") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestRunTableRejectsBadID(t *testing.T) {
	var buf bytes.Buffer
	if err := experiment.Run(&buf, "table99", experiment.Options{Scale: experiment.LaptopScale(), Seed: 1}); err == nil {
		t.Fatal("bad table id accepted")
	}
}

func TestRunFigureRejectsBadID(t *testing.T) {
	var buf bytes.Buffer
	if err := experiment.Run(&buf, "fig-nope", experiment.Options{Scale: experiment.LaptopScale(), Seed: 1}); err == nil {
		t.Fatal("bad figure id accepted")
	}
}

func TestRunTournamentWritesRanking(t *testing.T) {
	var buf bytes.Buffer
	scale := experiment.LaptopScale()
	scale.Rounds, scale.Parties = 6, 16
	err := experiment.Run(&buf, "tournament", experiment.Options{
		Scale:     scale,
		Selectors: []string{"random", "loss-prop"},
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Selector tournament") || !strings.Contains(out, "clean arm reached by") {
		t.Fatalf("tournament output:\n%s", out)
	}
	if err := experiment.Run(&buf, "tournament", experiment.Options{Scale: scale, Selectors: []string{"nope"}}); err == nil {
		t.Fatal("unknown selector accepted")
	}
	// An option the named experiment does not use is refused, not dropped.
	if err := experiment.Run(&buf, "het", experiment.Options{Scale: scale, Selectors: []string{"random"}}); err == nil {
		t.Fatal("selector list accepted by an experiment that ignores it")
	}
}

// TestDatasetAndStrategyLists: every built-in dataset and every registered
// selector is a job the decoder accepts, and the artifact registry lists the
// paper's tables and figures first.
func TestDatasetAndStrategyLists(t *testing.T) {
	specs, strategies := dataset.AllSpecs(), selection.Names()
	if len(specs) != 4 || len(strategies) != 13 {
		t.Fatalf("%d datasets, %d strategies %v", len(specs), len(strategies), strategies)
	}
	for _, spec := range specs {
		if err := (SimulationConfig{Dataset: spec.Name, Rounds: 2, Parties: 8}).Validate(); err != nil {
			t.Errorf("dataset %s: %v", spec.Name, err)
		}
	}
	for _, name := range strategies {
		if err := (SimulationConfig{Dataset: "mit-bih-ecg", Strategy: name, Rounds: 2, Parties: 8}).Validate(); err != nil {
			t.Errorf("strategy %s: %v", name, err)
		}
	}
	exps, err := experiment.Expand("all")
	if err != nil || len(exps) != 24+10+8 || exps[0].Name != "table1" || exps[24].Name != "fig2" || exps[len(exps)-1].Name != "tee" {
		t.Fatalf("experiments %v, %v", exps, err)
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
	if err := experiment.Run(&buf, "chaos", experiment.Options{Scale: experiment.LaptopScale(), Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Chaos fault-matrix sweep", "byzantine-20", "krum", "clean"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunAsyncWritesTable smoke-tests the aggregation-mode sweep
// `flipsbench -exp async` prints, at laptop scale.
func TestRunAsyncWritesTable(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("async sweep is a multi-second run at laptop scale")
	}
	var buf bytes.Buffer
	if err := experiment.Run(&buf, "async", experiment.Options{Scale: experiment.LaptopScale(), Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Aggregation-mode sweep", "buffered H=1", "semisync H=4"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunHeterogeneityWritesTable smoke-tests the device-heterogeneity sweep
// `flipsbench -exp het` prints, at laptop scale.
func TestRunHeterogeneityWritesTable(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("het sweep is a multi-second run at laptop scale")
	}
	var buf bytes.Buffer
	if err := experiment.Run(&buf, "het", experiment.Options{Scale: experiment.LaptopScale(), Seed: 3}); err != nil {
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
// TestValidateAgreesWithBuild's generator, the aggregation policy re-drawn
// so every policy is reached (sync without a buffer or half-life, buffered
// without a deadline, semisync with one) — 64 draws in -short, 256 otherwise,
// of which about one in five survives every rule, at least five per policy
// outside -short. Each job
// DecodeSimulationConfig accepts must run without panicking and report one
// result digest at Parallelism {1, 8} × Shards {1, 5}, and once more through
// DistRunner and two loopback shard workers — local training leaves the
// process there, and results are decoded into the engine's vectors; so must
// the known diverging shapes, NaNs included. A job
// the runner refuses is counted and reported. The prefix arm then stops each
// job from its round hook (cancelling the run's context once 1–3 rounds are
// delivered) at Parallelism {1, 2} × Shards {1, 5}: the run must return the
// cancellation, and the rounds it delivered must be the uncancelled run's
// first rounds, bit for bit. Every arm but the first runs
// with freed update vectors NaN-poisoned (poisonFreed), so an update vector
// recycled before its last read shows up as a digest mismatch; the switch is
// process-wide, hence no t.Parallel.
func TestJobInvariance(t *testing.T) {
	runner := startRunner(t, 2)
	refused, stopped := 0, 0
	// prefix runs cfg to the end, then stops it once after rounds are
	// delivered. A job is evaluated every second round, and the evaluator's
	// queue lets the engine run at most four evaluations ahead of the hook,
	// so at 2·(after+5) rounds the stop always lands before the last round.
	prefix := func(name string, spec []byte, cfg SimulationConfig, after int) {
		cfg.Rounds = 2 * (after + 5)
		cfg.Parallelism, cfg.Shards = 1, 1
		poisonFreed = false
		full, err := RunSimulation(cfg)
		if err != nil {
			t.Errorf("%s %s: %d rounds: %v", name, spec, cfg.Rounds, err)
			return
		}
		poisonFreed = true
		for _, shape := range [][2]int{{1, 1}, {2, 1}, {1, 5}, {2, 5}} {
			cfg.Parallelism, cfg.Shards = shape[0], shape[1]
			ctx, cancel := context.WithCancel(context.Background())
			var got []RoundPoint
			_, err := runSimulation(ctx, cfg, func(p RoundPoint) {
				p.PerLabel = slices.Clone(p.PerLabel)
				if got = append(got, p); len(got) == after {
					cancel()
				}
			}, nil)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s %s: stopped after round %d at Parallelism %d Shards %d: err = %v, want the cancellation", name, spec, after, shape[0], shape[1], err)
				continue
			}
			if len(got) < after || len(got) >= len(full.History) {
				t.Errorf("%s %s: stopped after round %d at Parallelism %d Shards %d: %d of %d rounds delivered", name, spec, after, shape[0], shape[1], len(got), len(full.History))
				continue
			}
			d, _ := resultDigest(&SimulationResult{History: got})
			if want, _ := resultDigest(&SimulationResult{History: full.History[:len(got)]}); d != want {
				t.Errorf("%s %s: the %d rounds delivered before the stop at Parallelism %d Shards %d differ from the uncancelled run's", name, spec, len(got), shape[0], shape[1])
			}
		}
		stopped++
	}
	// invariant runs spec at the four shapes and over the workers, and
	// reports whether its stats were finite; ok is false when the decoder
	// refuses it.
	invariant := func(name string, spec []byte) (finite, ok bool) {
		cfg, err := DecodeSimulationConfig(bytes.NewReader(spec))
		if err != nil {
			return false, false
		}
		var first uint64
		defer func() { poisonFreed = false }()
		for i, shape := range [][2]int{{1, 1}, {8, 1}, {1, 5}, {8, 5}} {
			cfg.Parallelism, cfg.Shards = shape[0], shape[1]
			poisonFreed = i > 0
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
		res, err := runner.Run(context.Background(), cfg, nil)
		if err != nil {
			refused++
			t.Logf("%s %s: refused by DistRunner: %v", name, spec, err)
			runner = startRunner(t, 2) // a worker that refuses an assignment is dropped
		} else if digest, _ := resultDigest(res); digest != first {
			t.Errorf("%s %s: digest %x over 2 shard workers, %x in-process", name, spec, digest, first)
		}
		prefix(name, spec, cfg, 1+stopped%3)
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
	ran, perPolicy := 0, map[string]int{}
	for i := 0; i < draws; i++ {
		cfg := sweepConfig(r)
		cfg.Parties = []int{6, 12, 24}[r.Intn(3)]
		cfg.Rounds = 2 + r.Intn(5)
		cfg.PaperScale = false // laptop scale evaluates every second round
		switch r.Intn(3) {
		case 0:
			cfg.Aggregation, cfg.BufferSize, cfg.StalenessHalfLife = "sync", 0, 0
		case 1:
			cfg.Aggregation, cfg.Deadline = "buffered", 0
		default:
			cfg.Aggregation, cfg.Deadline, cfg.BufferSize = "semisync", []float64{2, 60}[r.Intn(2)], 0
		}
		spec, err := json.Marshal(cfg)
		if err != nil {
			continue // a NaN or Inf knob: not expressible as a job at all
		}
		finite, ok := invariant(fmt.Sprintf("job %d", i), spec)
		if !ok {
			continue
		}
		ran++
		perPolicy[cfg.Aggregation]++
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
	t.Logf("%d of %d drawn jobs accepted and run (per policy: %v), %d of them refused by DistRunner, %d stopped part-way", ran, draws, perPolicy, refused, stopped)
	if !testing.Short() {
		for _, policy := range []string{"sync", "buffered", "semisync"} {
			if perPolicy[policy] < 5 {
				t.Fatalf("only %d %s jobs accepted: the sweep no longer covers the policy", perPolicy[policy], policy)
			}
		}
	}
}
