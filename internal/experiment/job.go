package experiment

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"flips/internal/chaos"
	"flips/internal/dataset"
	"flips/internal/device"
	"flips/internal/dist"
	"flips/internal/fl"
)

// SimulationConfig is one job description: what POST /jobs, a `flipsd
// -selftest` job file, a shard worker's assignment and a fleet-sweep cell say
// about a job. Package flips re-exports it as its public surface.
type SimulationConfig struct {
	// Dataset is one of "mit-bih-ecg", "ham10000", "femnist",
	// "fashion-mnist".
	Dataset string
	// Algorithm is one of "fedavg", "fedprox", "fedyogi", "fedadam",
	// "fedadagrad", "feddyn", "fedsgd" (default "fedyogi").
	Algorithm string
	// Strategy is any selector name in the selection registry: the paper's
	// five ("random", "flips", "oort", "gradclus", "tifl"), "power-of-choice",
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
	// half the per-round cohort); refused under the other policies.
	BufferSize int
	// StalenessHalfLife is the async staleness discount half-life in server
	// model versions — an update s versions stale keeps 2^(−s/H) of its
	// weight (0 uses the default of 4); refused under "sync".
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
	// ID ranges, the buckets each round's ShardsTouched counts (a locality
	// metric). It stores and folds nothing by shard, so results are
	// bit-identical at every value (see DESIGN.md, "Sharded aggregation").
	// Zero keeps a single shard.
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
	// default of 10); refused without a FaultModel.
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

// Resolve maps the job description to the grid cell it names: defaults
// filled in, string knobs looked up, and the train set grown to two samples
// per party when Parties outgrows it.
func (c SimulationConfig) Resolve() (Setting, Scale, error) {
	spec, ok := dataset.ByName(c.Dataset)
	if !ok {
		names := make([]string, 0, 4)
		for _, s := range dataset.AllSpecs() {
			names = append(names, s.Name)
		}
		return Setting{}, Scale{}, fmt.Errorf("flips: unknown dataset %q (valid: %v)", c.Dataset, names)
	}
	// Zero means "the default" for these three; a negative value is a
	// mistake, not a request for the default.
	if c.Rounds < 0 || c.Parties < 0 || c.Parallelism < 0 {
		return Setting{}, Scale{}, fmt.Errorf("flips: negative Rounds %d, Parties %d or Parallelism %d", c.Rounds, c.Parties, c.Parallelism)
	}
	scale := LaptopScale()
	if c.PaperScale {
		scale = PaperScale()
	}
	if c.Rounds > 0 {
		scale.Rounds = c.Rounds
	} else {
		scale.Rounds = RoundsFor(spec, scale)
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
	setting := Setting{
		Spec:              spec,
		Algorithm:         cmp.Or(c.Algorithm, AlgoFedYogi),
		Strategy:          cmp.Or(c.Strategy, StrategyFLIPS),
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
		TargetAccuracy:    TargetFor(spec),
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
		return Setting{}, Scale{}, fmt.Errorf("flips: %w", err)
	}
	if fault != chaos.FaultNone {
		if c.FaultFraction <= 0 {
			return Setting{}, Scale{}, fmt.Errorf("flips: fault model %q requires a positive FaultFraction", c.FaultModel)
		}
		setting.Chaos = &chaos.Spec{
			Seed:          c.Seed,
			Fault:         fault,
			FaultFraction: c.FaultFraction,
			FaultScale:    c.FaultScale,
		}
	} else if c.FaultFraction != 0 {
		return Setting{}, Scale{}, fmt.Errorf("flips: FaultFraction requires a fault model")
	} else if c.FaultScale != 0 {
		return Setting{}, Scale{}, fmt.Errorf("flips: FaultScale requires a fault model")
	}
	devCfg, err := c.resolveDevice()
	if err != nil {
		return Setting{}, Scale{}, err
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
	_, err := c.Cost()
	return err
}

// Cost is the job's admission work term, in parameter-sample steps over all
// its repeats (DESIGN.md, "Admission by cost"), or Validate's refusal. A
// refusal on a data, work or byte bound wraps ErrOverBound. The job server
// admits a job only while the summed Cost of its queued and running jobs
// stays under its budget.
func (c SimulationConfig) Cost() (float64, error) {
	setting, scale, err := c.Resolve()
	if err != nil {
		return 0, err
	}
	return admit(setting, scale)
}

// DecodeSimulationConfig reads one job description — a JSON object with
// SimulationConfig's field names — rejecting unknown fields, anything but
// whitespace after the object, and everything Validate rejects. It is the
// only place a SimulationConfig is decoded from JSON: the job server's POST
// /jobs body, the job file `flipsd -selftest` and `flipsload` take and the job
// spec a shard worker is assigned all pass through it.
func DecodeSimulationConfig(r io.Reader) (SimulationConfig, error) {
	var cfg SimulationConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return SimulationConfig{}, fmt.Errorf("flips: malformed job config: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return SimulationConfig{}, fmt.Errorf("flips: malformed job config: trailing data after the JSON object")
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

// DistWorkerBuilder returns the dist.Builder every shard worker serves —
// `flipsd -worker` and `flipsbench -dist-worker-connect` alike. The job spec
// is one repeat's SimulationConfig JSON (AttachDist), decoded like any
// submission, so a spec the job server would refuse draws an error frame;
// the worker builds its [lo, hi) range of the coordinator's fleet with
// BuildShard, never the fleet-wide work only the coordinator reads.
func DistWorkerBuilder() dist.Builder {
	return func(spec []byte, lo, hi int) (dist.JobSetup, error) {
		cfg, err := DecodeSimulationConfig(bytes.NewReader(spec))
		if err != nil {
			return dist.JobSetup{}, err
		}
		setting, scale, err := cfg.Resolve()
		if err != nil {
			return dist.JobSetup{}, err
		}
		parties, factory, err := BuildShard(context.Background(), setting, scale, lo, hi)
		if err != nil {
			return dist.JobSetup{}, err
		}
		return dist.JobSetup{Parties: parties, Factory: factory}, nil
	}
}

// AttachDist is the Attach that runs every repeat of cfg with its local
// training on the workers of coord: each repeat opens its own dist.Job,
// whose spec is cfg at the repeat's seed, so DistWorkerBuilder rebuilds that
// repeat's fleet; its party space is split into `workers` contiguous ranges.
// opened, when non-nil, is handed each job and returns what to run just
// before the job closes. Once the repeat's set-up context is done, the job
// stops waiting for workers and dispatches no further wave.
func AttachDist(coord *dist.Coordinator, cfg SimulationConfig, workers int, opened func(*dist.Job) (closing func())) Attach {
	return func(ctx context.Context, seed uint64, parties int) (fl.ShardTransport, func(), error) {
		repeat := cfg
		repeat.Seed = seed
		spec, err := json.Marshal(repeat)
		if err != nil {
			return nil, nil, fmt.Errorf("flips: encode job spec: %w", err)
		}
		job, err := dist.NewJobContext(ctx, coord, spec, parties, workers)
		if err != nil {
			return nil, nil, err
		}
		closing := func() {}
		if opened != nil {
			closing = opened(job)
		}
		return job, func() {
			closing()
			job.Close()
		}, nil
	}
}
