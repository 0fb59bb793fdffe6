package flips

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"flips/internal/chaos"
	"flips/internal/dataset"
	"flips/internal/device"
	"flips/internal/experiment"
	"flips/internal/fl"
)

// SimulationConfig selects one evaluation cell of the paper's grid.
type SimulationConfig struct {
	// Dataset is one of "mit-bih-ecg", "ham10000", "femnist",
	// "fashion-mnist".
	Dataset string
	// Algorithm is one of "fedavg", "fedprox", "fedyogi", "fedadam",
	// "fedadagrad", "feddyn", "fedsgd" (default "fedyogi").
	Algorithm string
	// Strategy is any selector name in the selection registry — see
	// Strategies() for the accepted list: the paper's five ("random",
	// "flips", "oort", "gradclus", "tifl"), "power-of-choice",
	// "cluster-proportional", the scored family ("grad-norm", "loss-prop",
	// "divergence"), the deadline-aware pair ("soft-deadline",
	// "hard-deadline") and "dpp" (default "flips").
	Strategy string
	// CandidateFactor is the power-of-choice candidate over-sampling ratio
	// d/Nr: the selector invites utility-ranked winners from a candidate
	// list of CandidateFactor × cohort-size parties. 0 keeps the default of
	// 2; values in (0, 1) are rejected. Ignored by the other strategies.
	CandidateFactor float64
	// Alpha is the Dirichlet non-IIDness (default 0.3).
	Alpha float64
	// PartyFraction is per-round participation (default 0.2).
	PartyFraction float64
	// StragglerRate drops this fraction of invited parties (default 0).
	// Legacy straggler model; ignored when DeviceProfile is set.
	StragglerRate float64
	// DeviceProfile enables the device heterogeneity simulator: "" keeps
	// the legacy flat straggler drop, "uniform" gives a homogeneous
	// always-on fleet, "lognormal" a heavy-tailed compute/bandwidth fleet.
	// With a profile set, stragglers arise from simulated round wall-clock
	// (offline parties and Deadline misses) and the result reports
	// simulated time-to-target-accuracy.
	DeviceProfile string
	// Availability selects the fleet's availability process (device model
	// only): "always-on" (default), "churn", "diurnal".
	Availability string
	// Deadline is the per-round reporting deadline in simulated seconds
	// (device model only; 0 waits for every online party). Under "semisync"
	// aggregation it is the required window length.
	Deadline float64
	// Aggregation selects the engine's execution model: "" or "sync"
	// (synchronous rounds, the paper's setting), "buffered" (FedBuff-style
	// asynchronous aggregation every BufferSize arrivals with
	// staleness-discounted weights) or "semisync" (Deadline-length windows;
	// stragglers carry over into later windows instead of being dropped).
	// Rounds counts aggregation steps in every mode, and SimTime /
	// TimeToTarget ride the same simulated event clock, so time-to-accuracy
	// is comparable across modes.
	Aggregation string
	// BufferSize is the "buffered" policy's aggregation trigger K (0 uses
	// half the per-round cohort).
	BufferSize int
	// StalenessHalfLife is the async staleness discount half-life in server
	// model versions — an update s versions stale keeps 2^(−s/H) of its
	// weight (0 uses the default of 4).
	StalenessHalfLife float64
	// PaperScale runs the full 200-party/400-round configuration instead of
	// the laptop default.
	PaperScale bool
	// Rounds overrides the round budget when positive (negative is refused).
	Rounds int
	// Parties overrides the population size when positive (negative is
	// refused).
	Parties int
	// Parallelism bounds concurrent local training, evaluation shards and
	// repeat runs. Zero uses GOMAXPROCS (the job server: its per-job
	// default); 1 forces the sequential path; negative is refused. The
	// result is bit-identical at every setting (see DESIGN.md).
	Parallelism int
	// Shards partitions the party population into deterministic contiguous
	// shards for fleet-scale aggregation: per-party engine state becomes
	// shard-local and lazily allocated, and the aggregation fold is
	// partitioned across the worker pool. Results are bit-identical at
	// every value (see DESIGN.md, "Sharded aggregation"); raise it for
	// 100k+-party populations. Zero keeps a single shard.
	Shards int
	// Fold selects the aggregation fold: "" or "mean" (the paper's
	// example-weighted FedAvg average), "trimmed-mean", "median" or "krum".
	// The robust folds discard outlier updates and are what stands between
	// a byzantine minority and the global model (see DESIGN.md, "Chaos
	// engine").
	Fold string
	// FaultModel turns a fraction of the fleet faulty: "" or "none",
	// "label-flip" (training labels rewritten to a fixed wrong class),
	// "scaled" (deltas multiplied by FaultScale), "sign-flip" (deltas
	// negated) or "byzantine" (deltas replaced with FaultScale-scaled
	// Gaussian noise). The faulty set is drawn deterministically from Seed.
	FaultModel string
	// FaultFraction is the fraction of parties that misbehave under
	// FaultModel; required positive when FaultModel is set.
	FaultFraction float64
	// FaultScale scales "scaled" deltas and "byzantine" noise (0 uses the
	// default of 10).
	FaultScale float64
	// Mask enables Bonawitz-style pairwise secure-aggregation masking: the
	// server only ever folds the cohort sum of fixed-point-encoded, masked
	// updates, never an individual update. Invited parties escrow Shamir
	// shares of their mask seeds at wave start, so deadline-missers and
	// outage victims have their masks reconstructed from the survivors;
	// when survivors fall below ShareThreshold the round aborts gracefully
	// (RoundPoint.MaskAborted) and the model is left untouched. Requires
	// the mean fold and a positive Clip (defaulted to 1 when unset).
	Mask bool
	// Clip bounds each update's L2 norm before aggregation. With Mask it is
	// required — it caps the fixed-point encoding range; alone it is plain
	// defense-in-depth clipping on the plaintext fold.
	Clip float64
	// Epsilon, when positive, adds per-round (ε, 0)-differential-privacy
	// Laplace noise calibrated to sensitivity 2·Clip/contributors to the
	// folded mean delta. Requires Clip.
	Epsilon float64
	// ShareThreshold is the minimum number of surviving cohort members
	// required to reconstruct dropout masks (0 uses a cohort majority).
	// Lower tolerates more dropouts; higher hardens against collusion.
	ShareThreshold int
	// Seed fixes all randomness.
	Seed uint64
}

// RoundPoint is one evaluated round of a simulation, the engine's own value:
// the round hook, SimulationResult.History and the job server's stream all
// carry it, so a per-round field is declared once (fl.RoundStats documents
// each). PerLabel must be copied if a hook retains it.
type RoundPoint = fl.RoundStats

// SimulationResult summarizes a finished FL simulation.
type SimulationResult struct {
	History        []RoundPoint
	PeakAccuracy   float64
	RoundsToTarget int // -1 if the target was not reached
	// TimeToTarget is the simulated seconds at which the target accuracy
	// was first reached (-1 if never) and SimTime the run's total simulated
	// wall-clock — the time-to-accuracy axis of the device model.
	TimeToTarget   float64
	SimTime        float64
	TargetAccuracy float64
	TotalCommBytes int64
	NumClusters    int // FLIPS strategy only; 0 otherwise
}

func (c SimulationConfig) resolve() (experiment.Setting, experiment.Scale, error) {
	spec, ok := dataset.ByName(c.Dataset)
	if !ok {
		names := make([]string, 0, 4)
		for _, s := range dataset.AllSpecs() {
			names = append(names, s.Name)
		}
		return experiment.Setting{}, experiment.Scale{}, fmt.Errorf("flips: unknown dataset %q (valid: %v)", c.Dataset, names)
	}
	// Zero means "the default" for these three; a negative value is a
	// mistake, not a request for the default.
	if c.Rounds < 0 || c.Parties < 0 || c.Parallelism < 0 {
		return experiment.Setting{}, experiment.Scale{}, fmt.Errorf("flips: negative Rounds %d, Parties %d or Parallelism %d", c.Rounds, c.Parties, c.Parallelism)
	}
	scale := experiment.LaptopScale()
	if c.PaperScale {
		scale = experiment.PaperScale()
	}
	if c.Rounds > 0 {
		scale.Rounds = c.Rounds
	} else {
		scale.Rounds = experiment.RoundsFor(spec, scale)
	}
	if c.Parties > 0 {
		scale.Parties = c.Parties
	}
	if scale.TrainSize > 0 && scale.TrainSize < 2*scale.Parties {
		// Dirichlet partitioning needs at least one sample per party; give a
		// Parties override headroom instead of failing at build time.
		scale.TrainSize = 2 * scale.Parties
	}
	scale.Parallelism = c.Parallelism
	setting := experiment.Setting{
		Spec:              spec,
		Algorithm:         cmp.Or(c.Algorithm, experiment.AlgoFedYogi),
		Strategy:          cmp.Or(c.Strategy, experiment.StrategyFLIPS),
		CandidateFactor:   c.CandidateFactor,
		Alpha:             cmp.Or(c.Alpha, 0.3),
		PartyFraction:     cmp.Or(c.PartyFraction, 0.2),
		StragglerRate:     c.StragglerRate,
		Deadline:          c.Deadline,
		Aggregation:       c.Aggregation,
		BufferSize:        c.BufferSize,
		StalenessHalfLife: c.StalenessHalfLife,
		Shards:            c.Shards,
		Fold:              c.Fold,
		TargetAccuracy:    experiment.TargetFor(spec),
		Seed:              c.Seed,
	}
	clip := c.Clip
	if c.Mask && clip == 0 {
		// Masking needs a clip bound to cap the fixed-point encoding range;
		// unit norm is the conventional default.
		clip = 1
	}
	setting.Privacy = fl.PrivacyConfig{
		Mask:           c.Mask,
		Clip:           clip,
		Epsilon:        c.Epsilon,
		ShareThreshold: c.ShareThreshold,
	}
	fault, err := chaos.FaultModelByName(c.FaultModel)
	if err != nil {
		return experiment.Setting{}, experiment.Scale{}, fmt.Errorf("flips: %w", err)
	}
	if fault != chaos.FaultNone {
		if c.FaultFraction <= 0 {
			return experiment.Setting{}, experiment.Scale{}, fmt.Errorf("flips: fault model %q requires a positive FaultFraction", c.FaultModel)
		}
		setting.Chaos = &chaos.Spec{
			Seed:          c.Seed,
			Fault:         fault,
			FaultFraction: c.FaultFraction,
			FaultScale:    c.FaultScale,
		}
	} else if c.FaultFraction != 0 {
		return experiment.Setting{}, experiment.Scale{}, fmt.Errorf("flips: FaultFraction requires a fault model")
	}
	devCfg, err := c.resolveDevice()
	if err != nil {
		return experiment.Setting{}, experiment.Scale{}, err
	}
	setting.Device = devCfg
	return setting, scale, nil
}

// resolveDevice maps the string-typed device knobs to a device.Config, or
// nil for the legacy straggler model.
func (c SimulationConfig) resolveDevice() (*device.Config, error) {
	if c.DeviceProfile == "" {
		if c.Availability != "" {
			return nil, fmt.Errorf("flips: availability %q requires a device profile", c.Availability)
		}
		// Semi-sync windows are legal on the legacy (device-less) clock,
		// where durations come from the unitless latency × steps proxy.
		if c.Deadline != 0 && c.Aggregation != "semisync" {
			return nil, fmt.Errorf("flips: deadline requires a device profile")
		}
		return nil, nil
	}
	var cfg device.Config
	switch c.DeviceProfile {
	case "uniform":
		cfg = device.Uniform()
	case "lognormal":
		cfg = device.Lognormal()
	default:
		return nil, fmt.Errorf("flips: unknown device profile %q (valid: uniform, lognormal)", c.DeviceProfile)
	}
	kind, err := device.KindByName(c.Availability)
	if err != nil {
		return nil, fmt.Errorf("flips: %w", err)
	}
	cfg.Availability.Kind = kind
	return &cfg, nil
}

// Validate checks the configuration without running it or building its
// fleet: unknown datasets, strategies, device profiles, availability processes
// and aggregation modes are reported immediately, and so are the engine's
// cross-field rules — masking with a robust fold, fixed-point headroom for
// this fleet's total weight — which depend on the fleet only through its
// size, device model and train-set size. The job server uses it to answer a
// malformed submission with 400 instead of accepting a job doomed to fail.
func (c SimulationConfig) Validate() error {
	setting, scale, err := c.resolve()
	if err != nil {
		return err
	}
	return experiment.Validate(setting, scale)
}

// DecodeSimulationConfig reads one job description — a JSON object with
// SimulationConfig's field names — rejecting unknown fields and everything
// Validate rejects. It is the only place a SimulationConfig is decoded from
// JSON: the job server's POST /jobs body, the job file `flipsd -selftest` and
// `flipsload` take and the job spec a shard worker is assigned all pass
// through it.
func DecodeSimulationConfig(r io.Reader) (SimulationConfig, error) {
	var cfg SimulationConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return SimulationConfig{}, fmt.Errorf("flips: malformed job config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return SimulationConfig{}, err
	}
	return cfg, nil
}

// DecodeSimulationConfigFile is DecodeSimulationConfig over a job file (the
// argument `flipsd -selftest` and `flipsload` take), naming it in every error.
func DecodeSimulationConfigFile(path string) (SimulationConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return SimulationConfig{}, err
	}
	defer f.Close()
	cfg, err := DecodeSimulationConfig(f)
	if err != nil {
		return SimulationConfig{}, fmt.Errorf("job file %s: %w", path, err)
	}
	return cfg, nil
}

// RunSimulation executes one FL job and returns its convergence history.
func RunSimulation(cfg SimulationConfig) (*SimulationResult, error) {
	return RunSimulationStream(cfg, nil)
}

// RunSimulationStream is RunSimulation with a live per-round hook: onRound,
// when non-nil, receives every evaluated round as it completes — the
// streaming surface behind the job server's NDJSON round feed. The hook
// runs on the engine goroutine, so it should hand off quickly; the PerLabel
// slice must be copied if retained.
func RunSimulationStream(cfg SimulationConfig, onRound func(RoundPoint)) (*SimulationResult, error) {
	return runSimulation(cfg, onRound, nil)
}

// runSimulation is the one run path: in-process when attach is nil, with each
// repeat's local training on the transport attach returns when it is not
// (DistRunner.Run).
func runSimulation(cfg SimulationConfig, onRound func(RoundPoint), attach experiment.Attach) (*SimulationResult, error) {
	setting, scale, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	res, clusters, err := experiment.RunSettingClusters(setting, scale, onRound, attach)
	if err != nil {
		return nil, err
	}
	return &SimulationResult{
		History:        res.History,
		PeakAccuracy:   res.PeakAccuracy,
		RoundsToTarget: res.RoundsToTarget,
		TimeToTarget:   res.TimeToTarget,
		SimTime:        res.SimTime,
		TargetAccuracy: setting.TargetAccuracy,
		TotalCommBytes: res.TotalCommBytes,
		NumClusters:    len(clusters),
	}, nil
}

// ExperimentOptions configures RunExperiment. The zero value runs at laptop
// scale, seed 0, on every core.
type ExperimentOptions struct {
	// PaperScale runs the 200-party/400-round configuration instead of the
	// laptop default.
	PaperScale bool
	// Rounds and Parties override the scale's round budget and population
	// when positive.
	Rounds, Parties int
	// Parallelism bounds concurrent cells (0 = GOMAXPROCS, 1 = sequential);
	// the rendered artifact is identical at every width.
	Parallelism int
	// Seed fixes the run.
	Seed uint64
	// Selectors names selectors from Strategies(): the tournament's
	// competitors (empty enters all of them) or the scale sweep's one
	// strategy (default "random").
	Selectors []string
	// Populations lists the scale and dist sweeps' fleet sizes (defaults 1k,
	// 10k, 100k and 10k, 100k).
	Populations []int
}

// Experiments lists every evaluation artifact RunExperiment can regenerate,
// in the order a combined run produces them: the paper's "table1".."table24"
// and "fig2".."fig13"; the sweeps beyond the paper — "het" (device
// heterogeneity × round deadlines), "async" (sync / buffered / semi-sync
// aggregation × staleness), "chaos" (fault matrix × robust folds), "privacy"
// (clip / masking / masking+DP ladder) and "tournament" (every selector
// ranked across fleet regimes), each a time-to-target-accuracy table; and
// the simulator's own "scale" (parties × shards), "dist" (shard-worker
// processes, checked bit-identical to in-process) and "tee" (§5.1
// clustering inside the enclave).
func Experiments() []string { return experiment.Names() }

// RunExperiment regenerates the named artifacts — a name from Experiments(),
// "all-tables", "all-figures", "all", or a comma-separated list of those —
// and writes each one's text table, followed by a blank line, to w. The
// output is a pure function of (name, opts). An option none of the named
// experiments uses (Selectors for "het", say) is an error, not ignored.
func RunExperiment(w io.Writer, name string, opts ExperimentOptions) error {
	scale := experiment.LaptopScale()
	if opts.PaperScale {
		scale = experiment.PaperScale()
	}
	if opts.Rounds > 0 {
		scale.Rounds = opts.Rounds
	}
	if opts.Parties > 0 {
		scale.Parties = opts.Parties
		// Dirichlet partitioning needs at least one sample per party.
		if scale.TrainSize > 0 && scale.TrainSize < 2*scale.Parties {
			scale.TrainSize = 2 * scale.Parties
		}
	}
	scale.Parallelism = opts.Parallelism
	return experiment.Run(w, name, experiment.Options{
		Scale:     scale,
		Seed:      opts.Seed,
		Selectors: opts.Selectors,
		Parties:   opts.Populations,
	})
}

// Datasets lists the built-in workload names.
func Datasets() []string {
	specs := dataset.AllSpecs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Strategies lists the built-in participant-selection strategy names — the
// selection registry's canonical order, so the list cannot drift from what
// actually builds.
func Strategies() []string {
	return experiment.ExtendedStrategies()
}
