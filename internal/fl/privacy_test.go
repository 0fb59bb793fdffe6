package fl

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"flips/internal/chaos"
	"flips/internal/parallel"
	"flips/internal/rng"
	"flips/internal/secagg"
	"flips/internal/tensor"
)

// maskedQuantBound is the tolerance for masked-vs-plaintext comparisons: the
// fixed-point codec quantizes at 2^-30 per encoded term, so a cohort sum of
// a few hundred weighted terms decodes within ~1e-7 of the float fold, and a
// handful of rounds of smooth logistic-regression training amplifies that by
// little. Anything past this bound is a real masking defect, not rounding.
const maskedQuantBound = 1e-6

// privacySyncConfig is the base masked-sync job: the legacy golden fleet
// with the plain FedAvg server optimizer (so parameter differences are
// exactly aggregate differences, not optimizer-moment amplifications).
func privacySyncConfig(t *testing.T) Config {
	t.Helper()
	cfg := goldenLegacyConfig(t)
	cfg.Optimizer = &FedAvg{ServerLR: 1}
	cfg.StragglerRate = 0
	cfg.StragglerBias = 0
	cfg.Privacy = PrivacyConfig{Mask: true, Clip: 1}
	return cfg
}

func requireCloseParams(t *testing.T, a, b tensor.Vec, bound float64, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param lengths %d vs %d", what, len(a), len(b))
	}
	worst, at := 0.0, -1
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst, at = d, i
		}
	}
	if worst > bound {
		t.Fatalf("%s: params diverge by %v at coordinate %d (bound %v)", what, worst, at, bound)
	}
}

func TestPrivacyConfigValidation(t *testing.T) {
	t.Parallel()
	base := func() Config { return privacySyncConfig(t) }

	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"mask without clip", func(c *Config) { c.Privacy.Clip = 0 }, "requires Clip"},
		{"epsilon without clip", func(c *Config) { c.Privacy = PrivacyConfig{Epsilon: 2} }, "requires Clip"},
		{"negative clip", func(c *Config) { c.Privacy = PrivacyConfig{Clip: -1} }, "negative privacy clip"},
		{"negative epsilon", func(c *Config) { c.Privacy = PrivacyConfig{Epsilon: -1} }, "negative privacy epsilon"},
		{"threshold without mask", func(c *Config) { c.Privacy = PrivacyConfig{ShareThreshold: 2} }, "without Mask"},
		{"mask with robust fold", func(c *Config) { c.Fold = FoldConfig{Kind: FoldMedian} }, "mean fold"},
		{"mask with feddyn", func(c *Config) { c.FedDynAlpha = 0.1 }, "FedDyn"},
		{"headroom overflow", func(c *Config) { c.Privacy.Clip = math.Ldexp(1, 40) }, "fixed-point ring"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		err := cfg.validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// Clip alone composes with everything the mask stage must reject.
	cfg := base()
	cfg.Privacy = PrivacyConfig{Clip: 1}
	cfg.Fold = FoldConfig{Kind: FoldMedian}
	if err := cfg.validate(); err != nil {
		t.Fatalf("clip-only with robust fold rejected: %v", err)
	}
}

// TestMaskedSyncMatchesPlaintext is the core correctness pin with a full
// cohort: with no dropouts the pairwise masks cancel exactly in Z_{2^64},
// so the masked run must match the clip-only plaintext run to fixed-point
// quantization over the whole trajectory.
func TestMaskedSyncMatchesPlaintext(t *testing.T) {
	t.Parallel()
	masked := privacySyncConfig(t)
	plain := privacySyncConfig(t)
	plain.Privacy.Mask = false

	mres, err := Run(masked)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	requireCloseParams(t, mres.FinalParams, pres.FinalParams, maskedQuantBound, "masked vs plaintext")
	for _, h := range mres.History {
		if h.MaskAborted {
			t.Fatalf("round %d aborted with a full cohort", h.Round)
		}
		if h.Completed != h.Invited {
			t.Fatalf("round %d: %d/%d completed; this test needs a dropout-free fleet", h.Round, h.Completed, h.Invited)
		}
	}
}

// TestMaskedDeadlineDropoutRecovery exercises the headline path: a device
// fleet whose deadline drops parties every round. The dropouts' pairwise
// masks are left dangling in the survivors' sum; the coordinator must
// reconstruct them from the escrowed Shamir shares and land within the
// quantization bound of the plaintext fold over the same survivor set.
func TestMaskedDeadlineDropoutRecovery(t *testing.T) {
	t.Parallel()
	mk := func() Config {
		cfg := goldenDeviceConfig(t)
		cfg.Optimizer = &FedAvg{ServerLR: 1}
		// Threshold 2 keeps churn-heavy rounds (few survivors) on the
		// recovery path; the abort path has its own tests below.
		cfg.Privacy = PrivacyConfig{Mask: true, Clip: 1, ShareThreshold: 2}
		return cfg
	}
	masked := mk()
	plain := mk()
	plain.Privacy = PrivacyConfig{Clip: plain.Privacy.Clip}

	mres, err := Run(masked)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	dropouts := 0
	for i, h := range mres.History {
		if h.MaskAborted {
			t.Fatalf("round %d aborted; threshold 2 should hold on this fleet", h.Round)
		}
		dropouts += h.Invited - h.Completed
		p := pres.History[i]
		if h.Invited != p.Invited || h.Completed != p.Completed {
			t.Fatalf("round %d cohorts diverge between masked and plaintext: (%d,%d) vs (%d,%d)",
				h.Round, h.Invited, h.Completed, p.Invited, p.Completed)
		}
	}
	if dropouts == 0 {
		t.Fatal("no dropouts occurred; the recovery path was not exercised")
	}
	requireCloseParams(t, mres.FinalParams, pres.FinalParams, maskedQuantBound, "dropout recovery vs plaintext")
}

// TestMaskedChaosOutageRecovery is the chaos × secagg cross-check: a
// correlated regional outage blacks out masked parties mid-round, on top of
// deadline misses. The reconstructed masked aggregate must match the
// plaintext fold within the quantization bound, and the masked run must be
// bit-identical at every parallelism and shard count.
func TestMaskedChaosOutageRecovery(t *testing.T) {
	t.Parallel()
	mk := func() Config {
		cfg := goldenDeviceConfig(t)
		cfg.Optimizer = &FedAvg{ServerLR: 1}
		cfg.Privacy = PrivacyConfig{Mask: true, Clip: 1, ShareThreshold: 2}
		inj, err := chaos.New(chaos.Spec{
			Seed:       5,
			Regions:    4,
			OutageProb: 0.2,
			OutageLen:  1,
		}, len(cfg.Parties))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
		return cfg
	}

	masked := mk()
	plain := mk()
	plain.Privacy = PrivacyConfig{Clip: plain.Privacy.Clip}
	mres, err := Run(masked)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	dropouts := 0
	for _, h := range mres.History {
		if h.MaskAborted {
			t.Fatalf("round %d aborted; threshold 2 should hold under this outage schedule", h.Round)
		}
		dropouts += h.Invited - h.Completed
	}
	if dropouts == 0 {
		t.Fatal("chaos scenario produced no dropouts; the reconstruction path was not exercised")
	}
	requireCloseParams(t, mres.FinalParams, pres.FinalParams, maskedQuantBound, "chaos outage vs plaintext")

	// Determinism: the uint64 mask arithmetic and the sharded unmask/decode
	// passes must be bit-identical at every width and shard count.
	for _, pc := range []struct{ par, shards int }{{1, 1}, {4, 3}, {8, 8}} {
		cfg := mk()
		cfg.Parallelism = pc.par
		cfg.Shards = pc.shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, mres, res)
	}
}

// TestMaskedBelowThresholdAborts pins graceful degradation: with the share
// threshold at the full cohort size, any dropout makes reconstruction
// impossible, so every round must abort — surfacing MaskAborted — and leave
// the global model byte-untouched.
func TestMaskedBelowThresholdAborts(t *testing.T) {
	t.Parallel()
	cfg := privacySyncConfig(t)
	cfg.StragglerRate = 0.2 // rounds to ≥1 dropped party per round
	cfg.Privacy.ShareThreshold = cfg.PartiesPerRound
	cfg.TargetAccuracy = 0 // an untrained model never hits a target

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.History {
		if !h.MaskAborted {
			t.Fatalf("round %d did not abort below threshold", h.Round)
		}
		if h.Completed == 0 {
			t.Fatalf("round %d had no survivors; the abort should come from the threshold, not an empty cohort", h.Round)
		}
	}
	// The aborted waves must never touch the model: the final parameters are
	// bit-identical to the factory initialization.
	initial := cfg.Factory(rng.New(cfg.Seed).Split(0xF0)).Params()
	for i := range initial {
		if math.Float64bits(initial[i]) != math.Float64bits(res.FinalParams[i]) {
			t.Fatalf("aborted run moved parameter %d: %v -> %v", i, initial[i], res.FinalParams[i])
		}
	}
}

// TestMaskedThresholdRecoversNextRound verifies the retry story around an
// abort: with a mid-range threshold, rounds whose survivors reach it fold
// normally even when earlier rounds aborted — the fleet degrades and
// recovers round by round rather than wedging.
func TestMaskedThresholdRecoversNextRound(t *testing.T) {
	t.Parallel()
	cfg := goldenDeviceConfig(t)
	cfg.Optimizer = &FedAvg{ServerLR: 1}
	cfg.Rounds = 8
	cfg.Privacy = PrivacyConfig{Mask: true, Clip: 1, ShareThreshold: 4}

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aborted, folded := 0, 0
	for _, h := range res.History {
		if h.MaskAborted {
			aborted++
		} else if h.Completed > 0 {
			folded++
		}
	}
	if folded == 0 {
		t.Fatal("no round folded; threshold 4 should be reachable on this fleet")
	}
	// Whether any round aborts depends on the churn draw; what matters is
	// that an abort never poisons later rounds, which the fold count above
	// (and the finite final parameters below) establishes.
	_ = aborted
	for i, v := range res.FinalParams {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite final parameter %d after mixed abort/fold rounds", i)
		}
	}
}

// singlePoisonInjector poisons one party's reported delta with a NaN — the
// masked pipeline must reject it at the encode boundary, turn the party
// into a dropout, and reconstruct its masks like any deadline miss.
type singlePoisonInjector struct{ target int }

func (singlePoisonInjector) ForceOffline(int, int) bool     { return false }
func (singlePoisonInjector) LatencyFactor(int, int) float64 { return 1 }
func (singlePoisonInjector) CohortTarget(_, target int) int { return target }
func (s singlePoisonInjector) Corrupts(id int) bool         { return id == s.target }
func (s singlePoisonInjector) CorruptDelta(_, _ int, d tensor.Vec) {
	d[0] = math.NaN()
}

// TestMaskedBufferedPoisonReconstruction drives the buffered-async masked
// path: waves settle when their last member arrives, and a poisoned member
// (non-finite update, rejected at the encode boundary) becomes an in-wave
// dropout whose masks must be reconstructed — exercising recovery in a mode
// with no deadlines at all. The run must also be width/shard invariant.
func TestMaskedBufferedPoisonReconstruction(t *testing.T) {
	t.Parallel()
	mk := func() Config {
		cfg := goldenAsyncConfig(t)
		cfg.Optimizer = &FedAvg{ServerLR: 1}
		// Enough aggregation steps for the slow poisoned device's arrival to
		// drain through the K=3 buffer and get rejected at the encode gate.
		cfg.Rounds = 12
		cfg.Privacy = PrivacyConfig{Mask: true, Clip: 1, ShareThreshold: 2}
		cfg.Faults = singlePoisonInjector{target: 3}
		return cfg
	}
	base, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, h := range base.History {
		rejected += h.Rejected
		if h.MaskAborted {
			t.Fatalf("round %d aborted; threshold 2 should survive a single poisoned member", h.Round)
		}
	}
	if rejected == 0 {
		t.Fatal("the poisoned party was never rejected; the in-wave dropout path was not exercised")
	}
	for i, v := range base.FinalParams {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("poison leaked into final parameter %d", i)
		}
	}
	for _, pc := range []struct{ par, shards int }{{4, 3}, {8, 8}} {
		cfg := mk()
		cfg.Parallelism = pc.par
		cfg.Shards = pc.shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, base, res)
	}
}

// TestMaskedSemiSyncWindowDropouts drives the deadline-window masked path:
// wave members that miss their window become dropouts at the settleAll
// barrier (reconstruction), and their late arrivals are discarded at pop
// instead of folding into a later window. The run must be deterministic at
// every width and shard count.
func TestMaskedSemiSyncWindowDropouts(t *testing.T) {
	t.Parallel()
	mk := func() Config {
		cfg := goldenSemiSyncConfig(t)
		cfg.Optimizer = &FedAvg{ServerLR: 1}
		cfg.Rounds = 8
		cfg.Privacy = PrivacyConfig{Mask: true, Clip: 1, ShareThreshold: 2}
		return cfg
	}
	base, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range base.FinalParams {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite final parameter %d", i)
		}
	}
	folded := 0
	for _, h := range base.History {
		if !h.MaskAborted && h.Completed > 0 {
			folded++
		}
	}
	if folded == 0 {
		t.Fatal("no window folded anything")
	}
	for _, pc := range []struct{ par, shards int }{{1, 1}, {4, 3}, {8, 8}} {
		cfg := mk()
		cfg.Parallelism = pc.par
		cfg.Shards = pc.shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, base, res)
	}
}

// TestPrivacyNoiseDeterministicAndApplied pins the noise stage: the Laplace
// stream is a pure function of (seed, step), so two identical runs agree
// bitwise, and a noised run must actually differ from the noiseless one.
func TestPrivacyNoiseDeterministicAndApplied(t *testing.T) {
	t.Parallel()
	mk := func(eps float64, par int) Config {
		cfg := privacySyncConfig(t)
		cfg.Privacy.Epsilon = eps
		cfg.Parallelism = par
		return cfg
	}
	a, err := Run(mk(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, a, b)

	clean, err := Run(mk(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range clean.FinalParams {
		if clean.FinalParams[i] != a.FinalParams[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epsilon run is identical to the noiseless run; noise was never applied")
	}
}

// TestMaskHidesUpdatesFromSelector pins the masking feedback contract: an
// update-consuming selector runs on its metadata-only path under masking —
// no report carries its party's update.
func TestMaskHidesUpdatesFromSelector(t *testing.T) {
	t.Parallel()
	cfg := privacySyncConfig(t)
	sel := &updateRecordingSelector{inner: cfg.Selector}
	cfg.Selector = sel
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if sel.sawUpdate {
		t.Fatal("selector received per-party updates under masking")
	}
	if sel.observed == 0 {
		t.Fatal("selector never observed feedback")
	}
}

// updateRecordingSelector claims NeedsUpdates and records whether feedback
// ever carried a per-party update vector.
type updateRecordingSelector struct {
	inner     Selector
	sawUpdate bool
	observed  int
}

func (s *updateRecordingSelector) Name() string { return "update-recording" }

func (s *updateRecordingSelector) Select(round, target int) []int {
	return s.inner.Select(round, target)
}

func (s *updateRecordingSelector) Observe(fb RoundFeedback) {
	s.observed++
	for _, r := range fb.Completed {
		if r.Update != nil {
			s.sawUpdate = true
		}
	}
	s.inner.Observe(fb)
}

func (s *updateRecordingSelector) NeedsUpdates() bool { return true }

// TestClipBoundsSyncContributions pins the clip stage alone: with a tiny
// clip every plaintext sync contribution is bounded, so the folded delta's
// norm cannot exceed the clip either (the weighted mean of vectors inside
// an L2 ball stays inside it).
func TestClipBoundsSyncContributions(t *testing.T) {
	t.Parallel()
	cfg := privacySyncConfig(t)
	cfg.Privacy = PrivacyConfig{Clip: 1e-3}
	cfg.Rounds = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := cfg.Factory(rng.New(cfg.Seed).Split(0xF0)).Params()
	moved := res.FinalParams.Clone()
	moved.SubInPlace(initial)
	if n := moved.Norm2(); n > 2*1e-3+1e-12 {
		t.Fatalf("2 rounds under clip 1e-3 moved the model by %v; the clip stage is not binding", n)
	}
}

// TestModelVersionFreezesOnAbort guards the staleness accounting: an
// aborted wave must not bump the model version (nothing was applied), so a
// run that aborts every round ends at version 0 — observable through a
// model that never moves even under an adaptive optimizer with momentum.
func TestModelVersionFreezesOnAbort(t *testing.T) {
	t.Parallel()
	cfg := privacySyncConfig(t)
	cfg.Optimizer = NewFedYogi()
	cfg.StragglerRate = 0.2
	cfg.Privacy.ShareThreshold = cfg.PartiesPerRound
	cfg.TargetAccuracy = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := cfg.Factory(rng.New(cfg.Seed).Split(0xF0)).Params()
	for i := range initial {
		if math.Float64bits(initial[i]) != math.Float64bits(res.FinalParams[i]) {
			t.Fatalf("aborted run moved parameter %d under an adaptive optimizer", i)
		}
	}
}

// referenceSettlement is what referenceSettle computes for a wave: the
// masked sum after unmasking, the reconstructed dropout seeds with their
// signs, and the decoded mean delta with its total weight.
type referenceSettlement struct {
	acc      []uint64
	recSeeds [][32]byte
	recSigns []bool
	delta    tensor.Vec
	weight   float64
}

// referenceSettle settles an enrolled wave the way the engine did before
// settlement moved onto the pool, on one goroutine and with nothing reused:
// a coordinate-major masked sum over the survivors, and for every dropout a
// CombineShares of its escrowed shares followed by a fresh X25519 agreement
// between the rebuilt key and every survivor's public key. settleWave must
// agree with it bit for bit at every pool width.
func referenceSettle(t *testing.T, ps *privacyState, w *maskWave) referenceSettlement {
	t.Helper()
	k, words := len(w.members), ps.dim+1
	ref := referenceSettlement{acc: make([]uint64, words)}
	for _, cb := range w.contribs {
		for c := 0; c < words; c++ {
			x := cb.weight
			if c < ps.dim {
				x = cb.weight * cb.delta[c]
			}
			v, err := secagg.EncodeFixed(x)
			if err != nil {
				t.Fatal(err)
			}
			ref.acc[c] += v
		}
		si := cb.memberIdx
		for oj := 0; oj < k; oj++ {
			if oj != si {
				secagg.AddPairMask(ref.acc, &w.pairs[si*k+oj], w.tag, 0, words, w.members[si] > w.members[oj])
			}
		}
	}
	for di := 0; di < k; di++ {
		if w.arrived[di] {
			continue
		}
		var shares []secagg.Share
		for _, cb := range w.contribs[:w.splitT] {
			shares = append(shares, w.shares[di*k+cb.memberIdx])
		}
		secret, err := secagg.CombineShares(shares, w.splitT)
		if err != nil {
			t.Fatal(err)
		}
		priv, err := secagg.PrivateKeyFromSecret(&secret)
		if err != nil {
			t.Fatal(err)
		}
		for _, cb := range w.contribs {
			s := w.members[cb.memberIdx]
			seed, err := secagg.PairSeed(priv, ps.keys[s].pub)
			if err != nil {
				t.Fatal(err)
			}
			ref.recSeeds = append(ref.recSeeds, seed)
			ref.recSigns = append(ref.recSigns, s < w.members[di])
		}
	}
	for i := range ref.recSeeds {
		secagg.AddPairMask(ref.acc, &ref.recSeeds[i], w.tag, 0, words, ref.recSigns[i])
	}
	ref.weight = secagg.DecodeFixed(ref.acc[ps.dim])
	ref.delta = tensor.NewVec(ps.dim)
	for c := range ref.delta {
		ref.delta[c] = secagg.DecodeFixed(ref.acc[c]) / ref.weight
	}
	return ref
}

// requireReferenceEnrolment checks an enrolled wave against enrolment done
// the plain way: one X25519 agreement per pair, and per member one Shamir
// split among the other members only.
func requireReferenceEnrolment(t *testing.T, ps *privacyState, w *maskWave) {
	t.Helper()
	k := len(w.members)
	for i := 0; i < k; i++ {
		ki := ps.keys[w.members[i]]
		var xs []uint64
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			xs = append(xs, uint64(w.members[j])+1)
			seed, err := secagg.PairSeed(ki.priv, ps.keys[w.members[j]].pub)
			if err != nil {
				t.Fatal(err)
			}
			if w.pairs[i*k+j] != seed {
				t.Fatalf("pair seed (%d,%d) differs from a direct agreement", i, j)
			}
		}
		row, err := secagg.SplitSecret(&ki.secret, xs, w.splitT, w.tag)
		if err != nil {
			t.Fatal(err)
		}
		for j, ri := 0, 0; j < k; j++ {
			if j == i {
				continue
			}
			if w.shares[i*k+j] != row[ri] {
				t.Fatalf("member %d's share for holder %d differs from a direct split", i, j)
			}
			ri++
		}
	}
}

// randomWave enrolls a k-member cohort of distinct parties drawn from a
// 64-party population (so pair seeds repeat across waves and both the
// cached and the first-use enrolment paths run) and lets all but ndrop
// members contribute random clipped deltas in a random arrival order.
func randomWave(t *testing.T, ps *privacyState, r *rng.Source, tag uint64, k, ndrop int) *maskWave {
	t.Helper()
	cohort := r.SampleWithoutReplacement(64, k)
	for i := range cohort {
		cohort[i] += 1000
	}
	w, err := ps.beginWave(tag, 0, cohort)
	if err != nil {
		t.Fatal(err)
	}
	for _, mi := range r.SampleWithoutReplacement(k, k-ndrop) {
		delta := tensor.NewVec(ps.dim)
		for c := range delta {
			delta[c] = r.NormFloat64()
		}
		clipDeltaInPlace(delta, ps.pc.Clip)
		ps.contribute(w, mi, delta, 1+float64(r.Intn(200)))
	}
	return w
}

// requireSettlesLikeReference settles w and requires the masked sum, the
// recovered seeds and the decoded delta to equal referenceSettle's.
func requireSettlesLikeReference(t *testing.T, ps *privacyState, w *maskWave, what string) {
	t.Helper()
	ref := referenceSettle(t, ps, w)
	res, err := ps.settleWave(w)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if res.aborted || res.survivors != len(w.contribs) {
		t.Fatalf("%s: settled as %+v", what, res)
	}
	for c := range ref.acc {
		if ps.acc[c] != ref.acc[c] {
			t.Fatalf("%s: masked sum differs at coordinate %d", what, c)
		}
	}
	if len(ps.recSeeds) != len(ref.recSeeds) {
		t.Fatalf("%s: %d recovered seeds, reference %d", what, len(ps.recSeeds), len(ref.recSeeds))
	}
	for i := range ref.recSeeds {
		if ps.recSeeds[i] != ref.recSeeds[i] || ps.recSigns[i] != ref.recSigns[i] {
			t.Fatalf("%s: recovered seed %d differs from a fresh agreement", what, i)
		}
	}
	if !bitsEqual(res.weight, ref.weight) {
		t.Fatalf("%s: weight %v vs %v", what, res.weight, ref.weight)
	}
	for c := range ref.delta {
		if !bitsEqual(res.delta[c], ref.delta[c]) {
			t.Fatalf("%s: decoded delta differs at %d", what, c)
		}
	}
}

// TestSettleWaveMatchesReference is the bit-identity pin of the pool passes:
// over seeded random waves — every cohort size class, dropout count up to
// the threshold limit, the three threshold regimes, dimensions that end
// inside, on and one past a mask-stream chunk, and pool widths that run
// settlement as whole contributors (width ≤ survivors) and as contributor ×
// coordinate range (width > survivors) — enrolment equals the direct
// computation and settleWave equals referenceSettle in the masked sum, the
// recovered seeds and the decoded delta.
func TestSettleWaveMatchesReference(t *testing.T) {
	t.Parallel()
	dims, maxK, reps := []int{1, 3, 4, 5, 187, secagg.MaskChunk - 1, secagg.MaskChunk, 4096}, 48, 3
	if testing.Short() {
		// X25519 under the race detector is ~1 ms an agreement.
		dims, maxK, reps = dims[:5], 16, 1
	}
	for _, dim := range dims {
		for _, width := range []int{1, 2, 8} {
			dim, width := dim, width
			t.Run(fmt.Sprintf("dim=%d/width=%d", dim, width), func(t *testing.T) {
				t.Parallel()
				r := rng.New(uint64(dim)<<8 | uint64(width))
				maxK := maxK
				if dim == 4096 {
					maxK = 12 // k²·dim mask words per wave, twice
				}
				// One state per cell: pairs that met in an earlier wave enrol
				// from the cache, the rest by first-use agreement on the pool.
				cfg := &Config{Privacy: PrivacyConfig{Mask: true, Clip: 1}, Seed: 99}
				ps := newPrivacyState(cfg, dim, parallel.New(width))
				tag := uint64(0)
				for _, regime := range []string{"majority", "two", "k-1"} {
					for rep := 0; rep < reps; rep++ {
						k := 2 + r.Intn(maxK-1)
						switch regime {
						case "majority":
							ps.pc.ShareThreshold = 0
						case "two":
							ps.pc.ShareThreshold = 2
						case "k-1":
							ps.pc.ShareThreshold = max(k-1, 1)
						}
						ndrop := r.Intn(k - min(ps.effectiveThreshold(k), k) + 1)
						tag++
						w := randomWave(t, ps, r, tag, k, ndrop)
						if rep == 0 {
							requireReferenceEnrolment(t, ps, w)
						}
						requireSettlesLikeReference(t, ps, w, fmt.Sprintf("%s k=%d ndrop=%d", regime, k, ndrop))
					}
				}
			})
		}
	}
}

// TestSettleWaveSplitsOnChunkEdges settles the waves masked_sync never
// forms: one or two contributors (the third cohort member drops and is
// unmasked) and a vector of three whole chunks or three and a bit, so a pool
// wider than the survivors cuts each contributor into chunk-aligned ranges.
// Every width must settle like the reference and decode the width-1 delta
// bit for bit.
func TestSettleWaveSplitsOnChunkEdges(t *testing.T) {
	t.Parallel()
	for _, dim := range []int{3*secagg.MaskChunk - 1, 3*secagg.MaskChunk + 5} {
		for nsurv := 1; nsurv <= 2; nsurv++ {
			var want tensor.Vec
			for _, width := range []int{1, 2, 8} {
				what := fmt.Sprintf("dim=%d survivors=%d width=%d", dim, nsurv, width)
				cfg := &Config{Privacy: PrivacyConfig{Mask: true, Clip: 1, ShareThreshold: 1}, Seed: 7}
				ps := newPrivacyState(cfg, dim, parallel.New(width))
				w := randomWave(t, ps, rng.New(uint64(dim+nsurv)), 5, 3, 3-nsurv)
				requireSettlesLikeReference(t, ps, w, what)
				if split := ps.sumSplit > 1; split != (width > nsurv) {
					t.Fatalf("%s: contributors split into %d ranges", what, ps.sumSplit)
				}
				got := ps.decoded[ps.ndecoded-1]
				if want == nil {
					want = got
				}
				for c := range want {
					if !bitsEqual(got[c], want[c]) {
						t.Fatalf("%s: decoded delta differs from width 1 at coordinate %d", what, c)
					}
				}
			}
		}
	}
}

// TestMaskedSettleTamperedShare pins the verified reconstruction. An honest
// wave with dropouts decodes the survivors' weighted mean within the
// quantization bound. The same wave with one bit flipped in one escrowed
// share that reconstruction reads rebuilds a key whose public half is not
// the one the dropout enrolled with: the settlement must fail and hand back
// nothing to apply, where unmasking with the rebuilt key's streams would
// decode garbage without any error.
func TestMaskedSettleTamperedShare(t *testing.T) {
	t.Parallel()
	const (
		k, ndrop, dim = 9, 3, 21
	)
	for _, width := range []int{1, 4} {
		cfg := &Config{Privacy: PrivacyConfig{Mask: true, Clip: 1, ShareThreshold: 4}, Seed: 3}
		ps := newPrivacyState(cfg, dim, parallel.New(width))
		w := randomWave(t, ps, rng.New(17), 5, k, ndrop)

		res, err := ps.settleWave(w)
		if err != nil {
			t.Fatal(err)
		}
		mean, wsum := tensor.NewVec(dim), 0.0
		for _, cb := range w.contribs {
			mean.Axpy(cb.weight, cb.delta)
			wsum += cb.weight
		}
		mean.ScaleInPlace(1 / wsum)
		requireCloseParams(t, res.delta, mean, maskedQuantBound, "honest dropout recovery vs plaintext mean")

		// The last dropout's share held by the last reconstruction holder.
		di := k - 1
		for w.arrived[di] {
			di--
		}
		w.shares[di*k+w.contribs[w.splitT-1].memberIdx].Y[2] ^= 1 << 40
		ps.endCycle()
		res, err = ps.settleWave(w)
		if err == nil || !strings.Contains(err.Error(), "does not match its enrolled public key") {
			t.Fatalf("width %d: tampered escrow settled with error %v", width, err)
		}
		if res.delta != nil || res.weight != 0 || ps.ndecoded != 0 {
			t.Fatalf("width %d: failed settlement handed back %+v", width, res)
		}
	}
}

// TestMaskedDropoutsInvariantAcrossPoolAndShards is the engine-level pin:
// under each aggregation policy a masked job that loses cohort members
// (sync and semi-sync deadlines; a poisoned member under buffered, which has
// no deadline) produces one result at every Parallelism × Shards point.
// Settlement no longer reads Shards at all; Parallelism only sets how the
// wave's items are spread.
func TestMaskedDropoutsInvariantAcrossPoolAndShards(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		base func(*testing.T) Config
		mut  func(*Config)
	}{
		{"sync", goldenDeviceConfig, func(*Config) {}},
		{"buffered", goldenAsyncConfig, func(c *Config) {
			c.Rounds = 12
			c.Faults = singlePoisonInjector{target: 3}
		}},
		{"semisync", goldenSemiSyncConfig, func(c *Config) { c.Rounds = 8 }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mk := func(par, shards int) Config {
				cfg := tc.base(t)
				cfg.Optimizer = &FedAvg{ServerLR: 1}
				cfg.Privacy = PrivacyConfig{Mask: true, Clip: 1, ShareThreshold: 2}
				tc.mut(&cfg)
				cfg.Parallelism, cfg.Shards = par, shards
				return cfg
			}
			base, err := Run(mk(1, 1))
			if err != nil {
				t.Fatal(err)
			}
			lost := 0
			for _, h := range base.History {
				lost += h.Invited - h.Completed + h.Rejected
			}
			if lost == 0 {
				t.Fatal("no cohort member was lost; dropout recovery was not exercised")
			}
			for _, par := range []int{1, 2, 8} {
				for _, shards := range []int{1, 5} {
					res, err := Run(mk(par, shards))
					if err != nil {
						t.Fatal(err)
					}
					requireIdenticalResults(t, base, res)
				}
			}
		})
	}
}
