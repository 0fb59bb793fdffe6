// Package experiment assembles full FLIPS evaluation runs: it wires datasets,
// Dirichlet partitions, parties, selectors, FL algorithms and the simulator
// together, sweeps the paper's evaluation grid, and regenerates every table
// (1–24) and figure (2, 5–13) of the paper's §5.
package experiment

import (
	"context"
	"fmt"
	"unsafe"

	"flips/internal/chaos"
	"flips/internal/dataset"
	"flips/internal/device"
	"flips/internal/fl"
	"flips/internal/model"
	"flips/internal/parallel"
	"flips/internal/partition"
	"flips/internal/rng"
	"flips/internal/selection"
	"flips/internal/tensor"
)

// The paper's five compared strategies, by selection-registry name. Any
// registered name is accepted by Setting.Strategy; selection.Names()
// enumerates the registry itself, so the accepted set cannot drift from what
// actually builds.
const (
	StrategyRandom   = "random"
	StrategyFLIPS    = "flips"
	StrategyOort     = "oort"
	StrategyGradClus = "gradclus"
	StrategyTiFL     = "tifl"
)

// Algorithm names accepted by Setting.Algorithm.
const (
	AlgoFedAvg     = "fedavg"
	AlgoFedProx    = "fedprox"
	AlgoFedYogi    = "fedyogi"
	AlgoFedAdam    = "fedadam"
	AlgoFedAdagrad = "fedadagrad"
	AlgoFedDyn     = "feddyn"
	AlgoFedSGD     = "fedsgd"
)

// AllStrategies lists the paper's five compared selectors in table order.
func AllStrategies() []string {
	return []string{StrategyRandom, StrategyFLIPS, StrategyOort, StrategyGradClus, StrategyTiFL}
}

// Scale bounds the compute of one experiment run.
type Scale struct {
	// Parties is the population size N (paper: 200).
	Parties int
	// Rounds is the round budget R (paper: 400 for ECG/HAM, 200 for
	// FEMNIST/FashionMNIST).
	Rounds int
	// TrainSize / TestSize override dataset sizes.
	TrainSize, TestSize int
	// Repeats averages this many seeds per cell (paper: 6).
	Repeats int
	// EvalEvery controls evaluation cadence.
	EvalEvery int
	// Parallelism is the total concurrency budget for a run. It is spent at
	// the coarsest level available — grid/figure cells when sweeping, else
	// divided between repeat-seeds and each run's local-training workers —
	// so nested fan-outs never multiply past the budget. Zero uses
	// GOMAXPROCS; 1 forces the sequential path. Results are bit-identical
	// at every width.
	Parallelism int
}

// LaptopScale finishes a full table in seconds on a laptop while preserving
// the paper's qualitative shape. This is the default for `go test` and the
// bench harness.
func LaptopScale() Scale {
	return Scale{Parties: 60, Rounds: 100, TrainSize: 6000, TestSize: 1000, Repeats: 1, EvalEvery: 2}
}

// PaperScale mirrors the paper's configuration (200 parties, 400 rounds,
// 6-seed averages). Expect minutes–hours per table.
func PaperScale() Scale {
	return Scale{Parties: 200, Rounds: 400, TrainSize: 20000, TestSize: 2500, Repeats: 6, EvalEvery: 5}
}

// Setting is one cell of the evaluation grid.
type Setting struct {
	// Spec is the dataset generator (dataset.ECG(), ...).
	Spec dataset.Spec
	// Algorithm is one of the Algo* constants.
	Algorithm string
	// Alpha is the Dirichlet non-IIDness (paper: 0.3 and 0.6).
	Alpha float64
	// PartyFraction is the share of parties invited per round (paper: 0.15
	// and 0.20).
	PartyFraction float64
	// StragglerRate drops this fraction of invited parties per round
	// (paper: 0, 0.10, 0.20). Legacy straggler model; ignored when Device
	// is set.
	StragglerRate float64
	// Device, when non-nil, replaces the legacy straggler coin-flip with
	// the simulated device heterogeneity model: per-party compute speed,
	// bandwidth and availability drive which parties miss Deadline, and
	// simulated time-to-target-accuracy becomes meaningful.
	Device *device.Config
	// Deadline is the per-round reporting deadline in simulated seconds
	// (device model only; 0 waits for every online party).
	Deadline float64
	// Strategy is a selection-registry name (see selection.Names; the
	// paper's five are the Strategy* constants).
	Strategy string
	// CandidateFactor is the power-of-choice candidate over-sampling ratio
	// d/Nr. 0 keeps the historical default of 2; values in (0, 1) are
	// rejected. Ignored by the other strategies.
	CandidateFactor float64
	// Aggregation selects the engine execution model: "" or "sync"
	// (synchronous rounds), "buffered" (FedBuff-style aggregation every
	// BufferSize arrivals) or "semisync" (Deadline windows with straggler
	// carry-over). Rounds counts aggregation steps in every mode, and
	// SimTime/TimeToTarget ride the same event clock, so time-to-accuracy is
	// comparable across modes.
	Aggregation string
	// BufferSize is the buffered policy's K (0 uses the engine default,
	// half the per-round cohort).
	BufferSize int
	// StalenessHalfLife is the async staleness discount half-life in model
	// versions (0 uses the engine default of 4).
	StalenessHalfLife float64
	// Shards partitions the party population into deterministic shards for
	// fleet-scale aggregation (see fl.Config.Shards); results are
	// bit-identical at every value. 0 keeps a single shard.
	Shards int
	// Fold names the aggregation fold: "" or "mean" (weighted FedAvg),
	// "trimmed-mean", "median", "krum" (see fl.FoldByName). The robust folds
	// are what the chaos sweep stresses against byzantine parties.
	Fold string
	// Chaos, when non-nil, attaches a chaos fault-injection scenario to the
	// run: correlated regional outages, brownouts, flash-crowd surges and
	// faulty parties (see chaos.Spec). Label-flip scenarios poison the faulty
	// parties' training data at build time; the other fault models act at the
	// engine's fault seam.
	Chaos *chaos.Spec
	// Privacy configures the aggregation privacy middleware — pairwise
	// secure-aggregation masking with Shamir dropout recovery, L2 update
	// clipping and post-fold Laplace noise (see fl.PrivacyConfig). The zero
	// value keeps the plaintext fold byte-identical to pre-privacy runs.
	Privacy fl.PrivacyConfig
	// TargetAccuracy defines the rounds-to-target metric for this dataset.
	TargetAccuracy float64
	// Seed fixes all randomness for the run.
	Seed uint64
}

// Every dataset shares these: the local learning rate decays by lrDecayFactor
// every LRDecayEvery rounds, party latencies are lognormal with spread
// latencySigma, and a legacy straggler is drawn with weight
// latency^stragglerBias.
const (
	lrDecayFactor = 0.95
	latencySigma  = 0.6
	stragglerBias = 2
)

// TrainingProfile bundles the local-SGD hyperparameters per dataset, mirroring
// the paper's §4.2 setup (lr 0.001 with decay every 20–30 rounds there; here
// scaled to the synthetic substrate).
type TrainingProfile struct {
	SGD          model.SGDConfig
	LRDecayEvery int
	// FeatureShiftSigma adds a per-party offset vector ~N(0, σ²I) to every
	// sample a party holds, modelling cross-device feature heterogeneity
	// (writer style in FEMNIST, wearable/device variation for ECG,
	// dermatoscope differences for HAM10000). The global test set is
	// unshifted. This is what makes convergence speed depend on which
	// parties are selected even for near-balanced datasets.
	FeatureShiftSigma float64
	// Hidden selects the MLP hidden width; 0 uses logistic regression.
	Hidden int
	// AvgFamilySGD replaces SGD for the plain-averaging FL algorithms
	// (FedAvg, FedProx, FedSGD, FedDyn): their server applies raw averaged
	// deltas, so local steps must be larger than under the
	// adaptively-normalized FedYogi/FedAdam/FedAdagrad servers to converge
	// in a comparable number of rounds — mirroring how the paper tunes per
	// algorithm.
	AvgFamilySGD model.SGDConfig
}

// DefaultProfile returns the per-dataset training profile. Learning rates
// and epoch counts are calibrated per dataset (see DESIGN.md) so the paper's
// convergence ordering emerges at laptop scale.
func DefaultProfile(spec dataset.Spec) TrainingProfile {
	p := TrainingProfile{
		SGD:          model.SGDConfig{LearningRate: 0.03, BatchSize: 16, LocalEpochs: 1},
		LRDecayEvery: 20,
	}
	p.AvgFamilySGD = model.SGDConfig{LearningRate: 0.25, BatchSize: 16, LocalEpochs: 2}
	switch spec.Name {
	case "ham10000":
		p.LRDecayEvery = 30
		p.FeatureShiftSigma = 0.8
	case "femnist":
		p.FeatureShiftSigma = 1.0
		p.SGD.LearningRate = 0.02
		p.Hidden = 32
		p.AvgFamilySGD = model.SGDConfig{LearningRate: 0.08, BatchSize: 16, LocalEpochs: 2}
	case "fashion-mnist":
		p.FeatureShiftSigma = 1.0
		p.SGD.LearningRate = 0.02
		p.Hidden = 32
		p.AvgFamilySGD = model.SGDConfig{LearningRate: 0.08, BatchSize: 16, LocalEpochs: 2}
	default: // mit-bih-ecg
		p.FeatureShiftSigma = 0.3
	}
	return p
}

// usesPlainAveraging reports whether the algorithm's server applies raw
// averaged deltas (no per-parameter normalization).
func usesPlainAveraging(algorithm string) bool {
	switch algorithm {
	case AlgoFedAvg, AlgoFedProx, AlgoFedSGD, AlgoFedDyn:
		return true
	default:
		return false
	}
}

// TargetFor returns the rounds-to-target accuracy threshold used in the
// tables for a dataset. The paper uses 60% (ECG, HAM10000) and 80% (FEMNIST,
// Fashion-MNIST) top-accuracy on the real datasets; on the synthetic
// substrate the balanced-accuracy thresholds below sit at the same relative
// position of each learning curve (reached by FLIPS well inside the budget,
// by Random near or beyond it).
func TargetFor(spec dataset.Spec) float64 {
	switch spec.Name {
	case "femnist", "fashion-mnist":
		return 0.80
	default:
		return 0.65
	}
}

// RoundsFor returns the per-dataset round budget: the paper trains ECG and
// HAM10000 for up to 400 rounds and FEMNIST/Fashion-MNIST for 200, i.e. half.
func RoundsFor(spec dataset.Spec, scale Scale) int {
	switch spec.Name {
	case "femnist", "fashion-mnist":
		return max(scale.Rounds/2, 4)
	default:
		return scale.Rounds
	}
}

// BuildResult carries everything assembled for one run, exposed so examples
// and the TEE pipeline can reuse the construction.
type BuildResult struct {
	Parties  []*fl.Party
	Test     *dataset.Dataset
	Config   fl.Config
	Selector fl.Selector
	Clusters [][]int // non-nil only for FLIPS
}

// plan is the part of a job that follows from (setting, scale) alone, before
// any data exists: the sized dataset spec, the training profile and an
// fl.Config complete but for Parties, Test, Selector and Faults. Producing it
// performs every argument check the experiment layer has, so a job is checked
// the same way whether or not its fleet is then built.
type plan struct {
	spec    dataset.Spec
	profile TrainingProfile
	cfg     fl.Config
}

// maxDataBytes bounds the samples a job may generate, so a submission cannot
// ask for more memory than the host has: a 1M-party ECG job (2M train
// samples, ≈0.58 GB) fits with headroom, and the bound sits well below the
// 7 GiB reference box.
const maxDataBytes = 2 << 30

// dataBytes is what a job's generated data holds: one copy of every train and
// test sample, its feature vector and its Sample header. Build keeps no
// second copy (see applyFeatureShift).
func dataBytes(spec dataset.Spec) float64 {
	perSample := 8*spec.Dim + int(unsafe.Sizeof(dataset.Sample{}))
	return (float64(spec.TrainSize) + float64(spec.TestSize)) * float64(perSample)
}

func newPlan(setting Setting, scale Scale) (*plan, error) {
	if setting.PartyFraction <= 0 || setting.PartyFraction > 1 {
		return nil, fmt.Errorf("experiment: party fraction %v out of (0,1]", setting.PartyFraction)
	}
	if _, err := selection.ResolveCandidateFactor(setting.CandidateFactor); err != nil {
		return nil, err
	}
	spec := setting.Spec
	if scale.TrainSize > 0 {
		spec = spec.WithSizes(scale.TrainSize, max(scale.TestSize, 1))
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if b := dataBytes(spec); b > maxDataBytes {
		return nil, fmt.Errorf("experiment: %d train + %d test samples of dimension %d need %.1f GiB, above the %d GiB data bound",
			spec.TrainSize, spec.TestSize, spec.Dim, b/(1<<30), maxDataBytes>>30)
	}
	if err := partition.CheckDirichlet(spec.TrainSize, scale.Parties, setting.Alpha); err != nil {
		return nil, err
	}
	if setting.Device != nil {
		if err := setting.Device.Validate(); err != nil {
			return nil, err
		}
	}
	if err := selection.Check(setting.Strategy); err != nil {
		return nil, err
	}
	profile := DefaultProfile(spec)
	baseSGD := profile.SGD
	if usesPlainAveraging(setting.Algorithm) {
		baseSGD = profile.AvgFamilySGD
	}
	opt, sgd, dynAlpha, err := buildAlgorithm(setting.Algorithm, baseSGD)
	if err != nil {
		return nil, err
	}
	policy, err := fl.PolicyByName(setting.Aggregation, setting.BufferSize, setting.StalenessHalfLife)
	if err != nil {
		return nil, err
	}
	fold, err := fl.FoldByName(setting.Fold)
	if err != nil {
		return nil, err
	}
	if setting.Chaos != nil {
		if err := setting.Chaos.Validate(); err != nil {
			return nil, err
		}
	}

	classes := len(spec.LabelNames)
	factory := model.LogRegFactory(spec.Dim, classes)
	if profile.Hidden > 0 {
		factory = model.MLPFactory(spec.Dim, profile.Hidden, classes)
	}
	perRound := int(setting.PartyFraction * float64(scale.Parties))
	if perRound < 1 {
		perRound = 1
	}
	return &plan{spec: spec, profile: profile, cfg: fl.Config{
		NumClasses:      classes,
		Factory:         factory,
		Optimizer:       opt,
		Rounds:          scale.Rounds,
		PartiesPerRound: perRound,
		SGD:             sgd,
		LRDecayEvery:    profile.LRDecayEvery,
		LRDecayFactor:   lrDecayFactor,
		StragglerRate:   setting.StragglerRate,
		StragglerBias:   stragglerBias,
		Deadline:        setting.Deadline,
		FedDynAlpha:     dynAlpha,
		EvalEvery:       max(scale.EvalEvery, 1),
		TargetAccuracy:  setting.TargetAccuracy,
		Parallelism:     scale.Parallelism,
		Shards:          setting.Shards,
		Aggregation:     policy,
		Fold:            fold,
		Privacy:         setting.Privacy,
		Seed:            setting.Seed,
	}}, nil
}

// Validate reports whether Build followed by fl.Run would accept the job,
// without building it. Every refusal either can produce is a function of
// (setting, scale): the fleet Build assembles has scale.Parties parties,
// devices on all of them or none, and the train set's size as its total
// weight, which is all fl.Config's own validation reads of it.
func Validate(setting Setting, scale Scale) error {
	pl, err := newPlan(setting, scale)
	if err != nil {
		return err
	}
	return pl.cfg.ValidateShape(fl.FleetShape{
		Parties:     scale.Parties,
		Devices:     setting.Device != nil,
		TotalWeight: float64(pl.spec.TrainSize),
	})
}

// fleetData is the part of a fleet that follows from the data alone: the test
// set and parties [lo, hi) carrying only what local training reads of them —
// ID and samples. A party's samples are copies of train set entries whose
// feature vectors are the train set's own, packed party by party and shifted
// in place, so the build holds one copy of the data. The train set and its
// Dirichlet split do not outlive buildData: a shard worker's vectors outside
// its range become garbage with them, and its heap stays proportional to its
// range. Build derives the rest (latencies, label distributions, devices,
// the selector) from it; a shard worker needs nothing else.
type fleetData struct {
	// root has been split for the data (1, 2, 3, 5, in that order); Build
	// continues splitting it, so the streams are the ones a single function
	// would have drawn.
	root      *rng.Source
	latencies *rng.Source // root.Split(3): one draw per party, in ID order
	test      *dataset.Dataset
	parties   []*fl.Party // parties[i].ID == lo+i
}

// buildData materializes the samples of parties [lo, hi), packed and
// feature-shifted.
// Every step after the split is per party — a party's samples are its
// partition indices, its style offset comes from the ID-th child of one
// stream — so party i is the same whatever range produces it.
func buildData(ctx context.Context, pl *plan, setting Setting, scale Scale, lo, hi int) (*fleetData, error) {
	if lo < 0 || hi < lo || hi > scale.Parties {
		return nil, fmt.Errorf("experiment: party range [%d,%d) outside the %d-party fleet", lo, hi, scale.Parties)
	}
	if err := stopped(ctx, "generate"); err != nil {
		return nil, err
	}
	d := &fleetData{root: rng.New(setting.Seed)}
	train, test, err := dataset.Generate(pl.spec, d.root.Split(1))
	if err != nil {
		return nil, err
	}
	if err := stopped(ctx, "partition"); err != nil {
		return nil, err
	}
	part, err := partition.Dirichlet(train, scale.Parties, setting.Alpha, d.root.Split(2))
	if err != nil {
		return nil, err
	}
	if err := stopped(ctx, "pack"); err != nil {
		return nil, err
	}
	d.test = test
	d.parties = fl.PartyData(train, part, lo, hi)
	packVectors(train, part.Parties[lo:hi], d.parties)
	d.latencies = d.root.Split(3)
	if pl.profile.FeatureShiftSigma > 0 {
		applyFeatureShift(d.parties, pl.spec.Dim, pl.profile.FeatureShiftSigma, d.root.Split(5))
	}
	return d, nil
}

// stopped returns ctx's error, wrapped with the build stage it stops before,
// once ctx is done, and nil until then.
func stopped(ctx context.Context, stage string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("experiment: build stopped before %s: %w", stage, err)
	}
	return nil
}

// poison builds the setting's chaos injector (nil without a scenario) and
// flips the labels of the faulty parties among `parties` — once, here at
// build time; the injector's other hooks fire inside the engine. Party Data
// slices hold per-party Sample copies, so only a flipped party sees its
// labels move, and a party's flips come from the chaos seed's own per-party
// stream: the same whatever range it is built in. A FaultNone spec still
// yields an injector, so outage/surge-only scenarios work.
func poison(parties []*fl.Party, setting Setting, scale Scale, classes int) (*chaos.Injector, error) {
	if setting.Chaos == nil {
		return nil, nil
	}
	inj, err := chaos.New(*setting.Chaos, scale.Parties)
	if err != nil {
		return nil, err
	}
	for _, p := range parties {
		inj.FlipLabels(p.ID, p.Data, classes) // leaves a healthy party alone
	}
	return inj, nil
}

// BuildShard builds what a shard worker trains: parties [lo, hi) of the fleet
// Build assembles for (setting, scale) — bit-equal in ID and Data, every other
// field left zero — and the job's model factory. It is Build's own data path
// run over a range, so a worker skips the fleet-wide work no worker reads.
// Like BuildContext it stops between its stages once ctx is done.
func BuildShard(ctx context.Context, setting Setting, scale Scale, lo, hi int) ([]*fl.Party, model.Factory, error) {
	pl, err := newPlan(setting, scale)
	if err != nil {
		return nil, nil, err
	}
	d, err := buildData(ctx, pl, setting, scale, lo, hi)
	if err != nil {
		return nil, nil, err
	}
	if _, err := poison(d.parties, setting, scale, pl.cfg.NumClasses); err != nil {
		return nil, nil, err
	}
	return d.parties, pl.cfg.Factory, nil
}

// Build assembles (but does not run) the FL job for a setting. It is
// BuildContext with a context that is never done.
func Build(setting Setting, scale Scale) (*BuildResult, error) {
	return BuildContext(context.Background(), setting, scale)
}

// BuildContext assembles (but does not run) the FL job for a setting. It
// checks ctx between its stages — generate, partition, pack, profile,
// devices, selector — and the FLIPS clustering sweep checks it between
// K-Means fits; a done ctx ends the build with ctx's error, wrapped.
func BuildContext(ctx context.Context, setting Setting, scale Scale) (*BuildResult, error) {
	pl, err := newPlan(setting, scale)
	if err != nil {
		return nil, err
	}
	d, err := buildData(ctx, pl, setting, scale, 0, scale.Parties)
	if err != nil {
		return nil, err
	}
	if err := stopped(ctx, "profile"); err != nil {
		return nil, err
	}
	spec, profile, root, parties := pl.spec, pl.profile, d.root, d.parties
	classes := pl.cfg.NumClasses
	// Label distributions are what the parties were dealt: counted before any
	// fault flips a label.
	fl.ProfileParties(parties, classes, latencySigma, d.latencies)
	faults, err := poison(parties, setting, scale, classes)
	if err != nil {
		return nil, err
	}
	if err := stopped(ctx, "devices"); err != nil {
		return nil, err
	}
	if setting.Device != nil {
		// Devices draw from a fresh root split not used by the legacy path,
		// so Device == nil settings reproduce pre-device runs byte-exactly.
		fl.AttachDevices(parties, *setting.Device, root.Split(7))
	}

	var paramDim int
	if profile.Hidden > 0 {
		paramDim = model.NewMLP(spec.Dim, profile.Hidden, classes, root.Split(6)).NumParams()
	} else {
		paramDim = model.NewLogReg(spec.Dim, classes).NumParams()
	}

	if err := stopped(ctx, "selector"); err != nil {
		return nil, err
	}
	sel, clusters, err := buildSelector(ctx, setting, parties, paramDim, root.Split(4))
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("experiment: build stopped in the selector: %w", err)
		}
		return nil, err
	}
	cfg := pl.cfg
	cfg.Parties, cfg.Test, cfg.Selector = parties, d.test.Samples, sel
	if faults != nil {
		cfg.Faults = faults
	}
	return &BuildResult{
		Parties:  parties,
		Test:     d.test,
		Config:   cfg,
		Selector: sel,
		Clusters: clusters,
	}, nil
}

// packVectors moves the feature vectors of the parties' samples into the
// train set's leading vectors, party by party in Data order, and points each
// sample at its new place: the range's k-th sample takes train.Samples[k].X.
// owned[i] lists the train indices parties[i] was dealt, distinct across the
// range. A party's vectors then sit in consecutive allocations, which local
// training's walk over a party's samples reads faster than vectors scattered
// across the train set; the train set's vectors past the range die with it.
// Vectors move by swaps through one scratch row, so no value changes and
// nothing the size of the data is allocated.
func packVectors(train *dataset.Dataset, owned [][]int, parties []*fl.Party) {
	slots := train.Samples
	if len(slots) == 0 {
		return
	}
	holder := make([]int, len(slots)) // the range sample whose vector slot j holds, or -1
	for j := range holder {
		holder[j] = -1
	}
	m := 0
	for _, idx := range owned {
		m += len(idx)
	}
	at := make([]int, 0, m) // the slot holding the range's k-th vector
	for _, idx := range owned {
		for _, i := range idx {
			holder[i] = len(at)
			at = append(at, i)
		}
	}
	tmp := make(tensor.Vec, len(slots[0].X))
	for k := range at {
		w := at[k]
		if w == k {
			continue
		}
		dst, src := slots[k].X, slots[w].X
		if h := holder[k]; h >= 0 {
			copy(tmp, dst)
			copy(dst, src)
			copy(src, tmp)
			at[h], holder[w] = w, h
		} else {
			copy(dst, src)
			holder[w] = -1
		}
	}
	k := 0
	for _, p := range parties {
		for j := range p.Data {
			p.Data[j].X = slots[k].X
			k++
		}
	}
}

// applyFeatureShift adds each party's style offset to its samples' feature
// vectors in place. They are the train set's own vectors, which is safe:
// Dirichlet deals every train index to exactly one party, so each vector is
// shifted once, and the train set dies with buildData, so nothing else sees
// it. Party i's offset stream is the i-th child split off r, so a range that
// starts past party 0 first splits off — and drops — the children of the
// parties before it.
func applyFeatureShift(parties []*fl.Party, dim int, sigma float64, r *rng.Source) {
	if len(parties) == 0 {
		return
	}
	for id := 0; id < parties[0].ID; id++ {
		r.Split(uint64(id) + 1)
	}
	off := tensor.NewVec(dim)
	for _, p := range parties {
		pr := r.Split(uint64(p.ID) + 1)
		pr.Normals(off)
		off.ScaleInPlace(sigma)
		for _, s := range p.Data {
			for j := range s.X {
				s.X[j] += off[j]
			}
		}
	}
}

// buildSelector resolves the setting's strategy through the selection
// registry. The context's signal accessors are closures, so a strategy pays
// only for the signals its builder reads — and each strategy's RNG
// consumption is byte-identical to the historical hardwired switch.
func buildSelector(ctx context.Context, setting Setting, parties []*fl.Party, paramDim int, r *rng.Source) (fl.Selector, [][]int, error) {
	n := len(parties)
	bc := selection.BuildContext{
		Context:    ctx,
		NumParties: n,
		ParamDim:   paramDim,
		RNG:        r,
		DataSizes: func() []int {
			sizes := make([]int, n)
			for i, p := range parties {
				sizes[i] = p.NumSamples()
			}
			return sizes
		},
		Latencies: func() []float64 {
			// TiFL's offline profiling pass: with devices attached, tiers
			// form over simulated round durations (the real systemic
			// signal); the legacy path keeps the unitless latency
			// multiplier.
			latencies := make([]float64, n)
			for i, p := range parties {
				if p.Device != nil {
					latencies[i] = p.Device.RoundDuration(p.NumSamples(), 1, int64(paramDim)*8)
				} else {
					latencies[i] = p.Latency
				}
			}
			return latencies
		},
		LabelDists:      func() []tensor.Vec { return fl.NormalizedLabelDists(parties) },
		Deadline:        setting.Deadline,
		CandidateFactor: setting.CandidateFactor,
	}
	return selection.Build(setting.Strategy, bc)
}

func buildAlgorithm(name string, sgd model.SGDConfig) (fl.ServerOptimizer, model.SGDConfig, float64, error) {
	switch name {
	case AlgoFedAvg:
		return &fl.FedAvg{}, sgd, 0, nil
	case AlgoFedSGD:
		sgd.LocalEpochs = 1
		return &fl.FedAvg{}, sgd, 0, nil
	case AlgoFedProx:
		sgd.ProxMu = 0.1
		return &fl.FedAvg{}, sgd, 0, nil
	case AlgoFedYogi:
		return fl.NewFedYogi(), sgd, 0, nil
	case AlgoFedAdam:
		return fl.NewFedAdam(), sgd, 0, nil
	case AlgoFedAdagrad:
		return fl.NewFedAdagrad(), sgd, 0, nil
	case AlgoFedDyn:
		return &fl.FedAvg{}, sgd, 0.1, nil
	default:
		return nil, sgd, 0, fmt.Errorf("experiment: unknown algorithm %q", name)
	}
}

// Attach prepares one repeat's built job before it runs: it may hand the job
// to an external training transport — a dist.Job whose workers rebuild the
// same fleet from built.Config.Seed — or return a nil one to train
// in-process, and returns the release to call once that repeat has run.
type Attach func(built *BuildResult) (transport fl.ShardTransport, release func(), err error)

// RunSettingClusters builds and executes one cell, averaging scale.Repeats
// seeds: the package's only repeat loop and across-seed reduction. The
// returned result is the first seed's run with PeakAccuracy, SimTime,
// RoundsToTarget and TimeToTarget replaced by across-seed means (the paper
// reports 6-run averages), alongside the first repeat's party clusters
// (BuildResult.Clusters: nil unless the strategy clusters). A repeat re-seeds
// everything the job seeds — the data, and the chaos scenario if there is one
// — by the same offset, so a worker handed the repeat's seed rebuilds the
// repeat's fleet. Repeats run concurrently, and scale.Parallelism is a total
// budget divided between the repeat fan-out and each run's training workers
// (repeat-width × training-width ≤ budget), so nested pools never multiply
// past the requested concurrency. Each run also adds one evaluator goroutine
// outside the budget, idle unless a model snapshot is queued for it (see
// fl.Config.Parallelism). The reduction always folds in repeat order,
// so the averages are bit-identical at every width.
//
// onRound, when non-nil, receives every evaluated RoundStats of the *first*
// repeat as it happens (later repeats re-run the same cell under different
// seeds only to average the headline numbers, so streaming them would
// interleave unrelated trajectories). The hook runs on the first repeat's
// evaluator goroutine, in round order and never after this function returns;
// see fl.Config.OnRound for its retention contract.
// attach, when non-nil, routes every repeat's local training through the
// transport it returns. Every repeat's build stops between its stages and
// every run before its next round once ctx is done (BuildContext,
// fl.Config.Context), and the cell returns ctx's error, wrapped.
func RunSettingClusters(ctx context.Context, setting Setting, scale Scale, onRound func(fl.RoundStats), attach Attach) (*fl.Result, [][]int, error) {
	repeats := max(scale.Repeats, 1)
	budget := parallel.New(scale.Parallelism).Width()
	repWidth := min(budget, repeats)
	innerScale := scale
	innerScale.Parallelism = max(budget/repWidth, 1)
	type repOut struct {
		res      *fl.Result
		clusters [][]int
		err      error
	}
	outs := parallel.Map(parallel.New(repWidth), repeats, func(rep int) repOut {
		s := setting
		offset := uint64(rep) * 0x9E37
		s.Seed += offset
		if s.Chaos != nil {
			ch := *s.Chaos
			ch.Seed += offset
			s.Chaos = &ch
		}
		built, err := BuildContext(ctx, s, innerScale)
		if err != nil {
			return repOut{err: err}
		}
		built.Config.Context = ctx
		if rep == 0 {
			built.Config.OnRound = onRound
		}
		if attach != nil {
			transport, release, err := attach(built)
			if err != nil {
				return repOut{err: err}
			}
			defer release()
			built.Config.Transport = transport
		}
		res, err := fl.Run(built.Config)
		return repOut{res: res, clusters: built.Clusters, err: err}
	})
	var peakSum, simSum, tttSum float64
	var rttSum, rttCount int
	for _, o := range outs {
		if o.err != nil {
			return nil, nil, o.err
		}
		peakSum += o.res.PeakAccuracy
		simSum += o.res.SimTime
		if o.res.RoundsToTarget > 0 {
			rttSum += o.res.RoundsToTarget
			tttSum += o.res.TimeToTarget
			rttCount++
		}
	}
	first := outs[0].res
	first.PeakAccuracy = peakSum / float64(repeats)
	first.SimTime = simSum / float64(repeats)
	if rttCount == repeats && rttCount > 0 {
		first.RoundsToTarget = rttSum / rttCount
		first.TimeToTarget = tttSum / float64(rttCount)
	} else {
		// Any failed seed reports ">R" like the paper, on both clocks.
		first.RoundsToTarget = -1
		first.TimeToTarget = -1
	}
	return first, outs[0].clusters, nil
}
