package flips

import (
	"fmt"
	"io"

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
	// Rounds overrides the round budget when positive.
	Rounds int
	// Parties overrides the population size when positive.
	Parties int
	// Parallelism bounds concurrent local training, evaluation shards and
	// repeat runs. Zero uses GOMAXPROCS; 1 forces the sequential path. The
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

// RoundPoint is one evaluated round of a simulation.
type RoundPoint struct {
	Round     int
	Accuracy  float64 // balanced accuracy on the held-out global test set
	PerLabel  []float64
	CommBytes int64
	// Invited and Completed count this round's cohort: how many parties
	// were dispatched and how many arrivals the aggregation step folded.
	Invited   int
	Completed int
	// MeanLoss is the cohort's mean local training loss.
	MeanLoss float64
	// RoundTime is this round's simulated wall-clock seconds; SimTime is
	// the cumulative simulated wall-clock through this round (device-model
	// durations, or the legacy latency proxy).
	RoundTime float64
	SimTime   float64
	// ShardsTouched counts the distinct aggregation shards this round's
	// completed parties fell into — the streaming shard-locality metric.
	ShardsTouched int
	// Rejected counts completed updates this aggregation step refused to
	// fold because they carried non-finite (NaN/Inf) coordinates.
	Rejected int
	// MaskAborted reports that this aggregation step was abandoned because
	// secure-aggregation dropout recovery fell below the share threshold:
	// nothing was folded and the model did not move.
	MaskAborted bool
}

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
		Algorithm:         orDefault(c.Algorithm, experiment.AlgoFedYogi),
		Strategy:          orDefault(c.Strategy, experiment.StrategyFLIPS),
		CandidateFactor:   c.CandidateFactor,
		Alpha:             orDefaultF(c.Alpha, 0.3),
		PartyFraction:     orDefaultF(c.PartyFraction, 0.2),
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

// RunSimulation executes one FL job and returns its convergence history.
func RunSimulation(cfg SimulationConfig) (*SimulationResult, error) {
	return RunSimulationStream(cfg, nil)
}

// RunSimulationStream is RunSimulation with a live per-round hook: onRound,
// when non-nil, receives every evaluated round as it completes — the
// streaming surface behind the job server's NDJSON/SSE round feed. The hook
// runs on the engine goroutine, so it should hand off quickly; the PerLabel
// slice must be copied if retained.
func RunSimulationStream(cfg SimulationConfig, onRound func(RoundPoint)) (*SimulationResult, error) {
	setting, scale, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	res, clusters, err := experiment.RunSettingClusters(setting, scale, roundHook(onRound))
	if err != nil {
		return nil, err
	}
	return newSimulationResult(res, setting.TargetAccuracy, len(clusters)), nil
}

// roundHook adapts a public round hook to the engine's, keeping nil nil.
func roundHook(onRound func(RoundPoint)) func(fl.RoundStats) {
	if onRound == nil {
		return nil
	}
	return func(h fl.RoundStats) { onRound(roundPoint(h)) }
}

// newSimulationResult maps a finished engine run onto the public result.
func newSimulationResult(res *fl.Result, target float64, clusters int) *SimulationResult {
	out := &SimulationResult{
		PeakAccuracy:   res.PeakAccuracy,
		RoundsToTarget: res.RoundsToTarget,
		TimeToTarget:   res.TimeToTarget,
		SimTime:        res.SimTime,
		TargetAccuracy: target,
		TotalCommBytes: res.TotalCommBytes,
		NumClusters:    clusters,
	}
	for _, h := range res.History {
		out.History = append(out.History, roundPoint(h))
	}
	return out
}

// roundPoint maps the engine's RoundStats onto the public round shape.
func roundPoint(h fl.RoundStats) RoundPoint {
	return RoundPoint{
		Round:         h.Round,
		Accuracy:      h.Accuracy,
		PerLabel:      h.PerLabel,
		CommBytes:     h.CommBytes,
		Invited:       h.Invited,
		Completed:     h.Completed,
		MeanLoss:      h.MeanLoss,
		RoundTime:     h.RoundTime,
		SimTime:       h.SimTime,
		ShardsTouched: h.ShardsTouched,
		Rejected:      h.Rejected,
		MaskAborted:   h.MaskAborted,
	}
}

// RunTable regenerates one of the paper's Tables 1–24 and writes it to w.
// paperScale switches to the 200-party/400-round grid.
func RunTable(w io.Writer, tableID int, paperScale bool, seed uint64) error {
	spec, err := experiment.TableSpecByID(tableID)
	if err != nil {
		return err
	}
	scale := experiment.LaptopScale()
	if paperScale {
		scale = experiment.PaperScale()
	}
	grid, err := experiment.RunGrid(spec.Dataset, spec.Algorithm, scale, seed, nil)
	if err != nil {
		return err
	}
	grid.RenderTable(w, spec)
	return nil
}

// RunHeterogeneity runs the device-heterogeneity sweep — FLIPS vs Oort vs
// Random over a lognormal fleet under always-on/churn/diurnal availability ×
// round deadlines — and writes its time-to-target-accuracy table to w. This
// is the scenario family the paper's flat straggler drop cannot express.
func RunHeterogeneity(w io.Writer, paperScale bool, seed uint64) error {
	scale := experiment.LaptopScale()
	if paperScale {
		scale = experiment.PaperScale()
	}
	table, err := experiment.RunHeterogeneity(scale, seed, nil)
	if err != nil {
		return err
	}
	table.Render(w)
	return nil
}

// RunAsync runs the aggregation-mode sweep — FLIPS vs Oort vs Random over a
// lognormal device fleet under synchronous rounds, FedBuff-style buffered
// aggregation and semi-synchronous deadline windows, crossed with two
// staleness half-lives — and writes its time-to-target-accuracy table to w.
// This is the execution-model family the synchronous round loop cannot
// express: slow devices stop stalling the round, and their late updates are
// folded with staleness-discounted weights instead of being dropped.
func RunAsync(w io.Writer, paperScale bool, seed uint64) error {
	scale := experiment.LaptopScale()
	if paperScale {
		scale = experiment.PaperScale()
	}
	table, err := experiment.RunAsync(scale, seed, nil, nil)
	if err != nil {
		return err
	}
	table.Render(w)
	return nil
}

// RunChaos runs the fault-matrix sweep — a clean control plus correlated
// regional outages, flash-crowd surges, label flips and byzantine parties,
// crossed with the mean and robust aggregation folds and the selection
// strategies — and writes its time-to-target-accuracy degradation table to
// w. This is the fault-tolerance family the clean evaluation cannot
// express: it answers which (selector, fold) pairs keep converging when the
// fleet misbehaves, and what that robustness costs when nothing goes wrong.
func RunChaos(w io.Writer, paperScale bool, seed uint64) error {
	scale := experiment.LaptopScale()
	if paperScale {
		scale = experiment.PaperScale()
	}
	table, err := experiment.RunChaos(scale, seed, nil, nil)
	if err != nil {
		return err
	}
	table.Render(w)
	return nil
}

// RunPrivacy runs the privacy-ladder sweep — a plaintext control, clipping
// alone, pairwise secure-aggregation masking with Shamir dropout recovery,
// and masking plus differential-privacy noise, crossed with the selection
// strategies over a lognormal churn fleet — and writes its
// time-to-target-accuracy cost table to w. This is the deployment family the
// plaintext evaluation cannot express: it prices each rung of the privacy
// ladder in convergence time and counts the rounds lost to below-threshold
// mask aborts.
func RunPrivacy(w io.Writer, paperScale bool, seed uint64) error {
	scale := experiment.LaptopScale()
	if paperScale {
		scale = experiment.PaperScale()
	}
	table, err := experiment.RunPrivacy(scale, seed, nil, nil)
	if err != nil {
		return err
	}
	table.Render(w)
	return nil
}

// TournamentConfig configures the selector tournament.
type TournamentConfig struct {
	// Selectors lists the competitors by registry name; nil or empty enters
	// every registered selector (see Strategies()).
	Selectors []string
	// PaperScale runs the 200-party/400-round configuration instead of the
	// laptop default.
	PaperScale bool
	// Rounds overrides the round budget when positive.
	Rounds int
	// Parties overrides the population size when positive.
	Parties int
	// Parallelism bounds concurrent cells (0 = GOMAXPROCS).
	Parallelism int
	// Seed fixes the run.
	Seed uint64
}

// RunTournament runs the selector tournament — every registered selection
// strategy (or the configured subset) ranked on time-to-target-accuracy
// across clean, non-IID, churn and byzantine fleet regimes — and writes its
// ranking table to w. The final order is the across-arm mean of normalized
// per-arm ranks, so a selector wins by being consistently near the top, not
// by one lucky cell.
func RunTournament(w io.Writer, cfg TournamentConfig) error {
	scale := experiment.LaptopScale()
	if cfg.PaperScale {
		scale = experiment.PaperScale()
	}
	if cfg.Rounds > 0 {
		scale.Rounds = cfg.Rounds
	}
	if cfg.Parties > 0 {
		scale.Parties = cfg.Parties
		if scale.TrainSize > 0 && scale.TrainSize < 2*scale.Parties {
			scale.TrainSize = 2 * scale.Parties
		}
	}
	scale.Parallelism = cfg.Parallelism
	table, err := experiment.RunTournament(scale, cfg.Seed, cfg.Selectors, nil)
	if err != nil {
		return err
	}
	table.Render(w)
	return nil
}

// ScaleConfig configures the fleet-scale sweep.
type ScaleConfig struct {
	// Parties lists population sizes (default 1k, 10k, 100k).
	Parties []int
	// Shards lists shard counts crossed with each population (default 1, 64).
	Shards []int
	// Rounds is the aggregation-step budget per cell (default 8).
	Rounds int
	// Strategy picks the selector by registry name — any name in
	// Strategies() is accepted (default "random").
	Strategy string
	// Repeats re-runs each cell, reporting streaming mean ± std (default 1).
	Repeats int
	// Parallelism bounds the engine worker pool (0 = GOMAXPROCS).
	Parallelism int
	// Seed fixes the run.
	Seed uint64
}

// RunScale runs the fleet-scale sweep — parties × shards over the buffered
// (FedBuff-style) engine, measuring wall-clock aggregation throughput,
// arrivals/sec, shard locality and heap growth — and writes its table to w.
// This is the harness behind `flipsbench -exp scale`; a 100k-party cell
// completes in seconds because the engine's per-party state is shard-local
// and the selectors' fleet-scale paths are O(cohort), not O(population).
func RunScale(w io.Writer, cfg ScaleConfig) error {
	table, err := experiment.RunScale(experiment.ScaleSweep{
		Parties:     cfg.Parties,
		Shards:      cfg.Shards,
		Rounds:      cfg.Rounds,
		Repeats:     cfg.Repeats,
		Strategy:    cfg.Strategy,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
	}, nil)
	if err != nil {
		return err
	}
	table.Render(w)
	return nil
}

// RunFigure regenerates one of the paper's figures ("fig2", "fig5".."fig13")
// and writes its plottable data to w.
func RunFigure(w io.Writer, figureID string, paperScale bool, seed uint64) error {
	scale := experiment.LaptopScale()
	if paperScale {
		scale = experiment.PaperScale()
	}
	fig, err := experiment.RunFigure(figureID, scale, seed)
	if err != nil {
		return err
	}
	fig.Render(w)
	return nil
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

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

func orDefaultF(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}
