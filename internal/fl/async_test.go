package fl

import (
	"math"
	"strings"
	"testing"

	"flips/internal/device"
	"flips/internal/rng"
)

// asyncConfig builds a fresh deterministic job for an async policy: the
// legacy straggler knobs off (async stragglers emerge from arrival timing),
// the deadline set only for semisync.
func asyncConfig(t *testing.T, seed uint64, parallelism int, policy AggregationPolicy) Config {
	t.Helper()
	cfg := determinismConfig(t, seed, parallelism)
	cfg.StragglerRate = 0
	cfg.StragglerBias = 0
	cfg.Aggregation = policy
	if _, ok := policy.(SemiSync); ok {
		// Unitless legacy clock: latency ~1 × a few steps per round, so 4.0
		// lets most parties land in-window while slow ones carry over.
		cfg.Deadline = 4
	}
	return cfg
}

// asyncDeviceConfig is asyncConfig over a heterogeneous churn fleet.
func asyncDeviceConfig(t *testing.T, seed uint64, parallelism int, policy AggregationPolicy) Config {
	t.Helper()
	cfg := asyncConfig(t, seed, parallelism, policy)
	dev := device.Lognormal()
	dev.Availability = device.Availability{Kind: device.Churn, OnlineProb: 0.75}
	AttachDevices(cfg.Parties, dev, rng.New(seed^0xA51C))
	if _, ok := policy.(SemiSync); ok {
		// Tight enough that mid-speed parties (~0.2–0.3 simulated seconds
		// per round on this fleet) regularly carry over into the next
		// window, exercising staleness.
		cfg.Deadline = 0.2
	}
	return cfg
}

func asyncPolicies() []AggregationPolicy {
	return []AggregationPolicy{
		Buffered{K: 3, StalenessHalfLife: 2},
		SemiSync{StalenessHalfLife: 2},
	}
}

// TestAsyncRunMatchesSequential is the determinism regression for the async
// policies: a Parallelism: 8 Buffered or SemiSync run must be byte-identical
// to the sequential run of the same Config — arrival ordering, staleness
// discounts, the event clock and the final parameters included — on both the
// legacy clock and a churn device fleet.
func TestAsyncRunMatchesSequential(t *testing.T) {
	t.Parallel()
	for _, mkDev := range []bool{false, true} {
		for _, policy := range asyncPolicies() {
			for _, seed := range []uint64{3, 17} {
				mk := func(par int) Config {
					if mkDev {
						return asyncDeviceConfig(t, seed, par, policy)
					}
					return asyncConfig(t, seed, par, policy)
				}
				sequential, err := Run(mk(1))
				if err != nil {
					t.Fatalf("%s dev=%v seed %d sequential: %v", policy.Name(), mkDev, seed, err)
				}
				parallel8, err := Run(mk(8))
				if err != nil {
					t.Fatalf("%s dev=%v seed %d parallel: %v", policy.Name(), mkDev, seed, err)
				}
				requireIdenticalResults(t, sequential, parallel8)
				if sequential.SimTime <= 0 {
					t.Fatalf("%s dev=%v seed %d: no simulated time accumulated", policy.Name(), mkDev, seed)
				}
			}
		}
	}
}

// TestBufferedProgress sanity-checks the buffered semantics: every
// aggregation step folds exactly K arrivals, the event clock advances
// monotonically, and slow parties are not dropped (no straggler waste: every
// dispatched party eventually arrives or is still in flight at job end).
func TestBufferedProgress(t *testing.T) {
	t.Parallel()
	cfg := asyncDeviceConfig(t, 11, 0, Buffered{K: 3})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no history")
	}
	prev := 0.0
	for _, h := range res.History {
		if h.Completed != 3 {
			t.Fatalf("round %d folded %d arrivals, want K=3", h.Round, h.Completed)
		}
		if h.SimTime < prev {
			t.Fatalf("round %d sim clock went backward: %v < %v", h.Round, h.SimTime, prev)
		}
		prev = h.SimTime
	}
	if res.SimTime <= 0 || res.TotalCommBytes <= 0 {
		t.Fatalf("degenerate run: sim=%v comm=%d", res.SimTime, res.TotalCommBytes)
	}
}

// TestSemiSyncWindows pins the semi-sync clock: every window advances the
// simulated clock by exactly the deadline, and arrivals per window never
// exceed what was dispatched.
func TestSemiSyncWindows(t *testing.T) {
	t.Parallel()
	cfg := asyncConfig(t, 13, 0, SemiSync{})
	cfg.EvalEvery = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range res.History {
		if want := cfg.Deadline * float64(h.Round); math.Abs(h.SimTime-want) > 1e-9 {
			t.Fatalf("history[%d] sim time %v, want %v (deadline × %d windows)", i, h.SimTime, want, h.Round)
		}
		if h.RoundTime != cfg.Deadline {
			t.Fatalf("history[%d] round time %v, want deadline %v", i, h.RoundTime, cfg.Deadline)
		}
	}
}

// TestAsyncFeedbackIsArrivalDriven checks the selector-facing contract: the
// async engine reports staleness for every completed (arrived) party, and
// stale arrivals really do appear in later aggregation steps.
func TestAsyncFeedbackIsArrivalDriven(t *testing.T) {
	t.Parallel()
	stale := 0
	sel := &feedbackSpySelector{inner: &rotatingSelector{n: 16}, observe: func(fb RoundFeedback) {
		for _, r := range fb.Completed {
			if r.Staleness < 0 {
				t.Errorf("negative staleness at round %d", fb.Round)
			}
			if r.Staleness > 0 {
				stale++
			}
		}
	}}
	cfg := asyncDeviceConfig(t, 19, 0, SemiSync{StalenessHalfLife: 2})
	cfg.Selector = sel
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if stale == 0 {
		t.Fatal("no stale arrival observed; the scenario should produce deadline carry-overs")
	}
}

// feedbackSpySelector forwards selection to an inner selector and captures
// feedback.
type feedbackSpySelector struct {
	inner   Selector
	observe func(RoundFeedback)
}

func (s *feedbackSpySelector) Name() string                { return "spy:" + s.inner.Name() }
func (s *feedbackSpySelector) Select(round, tgt int) []int { return s.inner.Select(round, tgt) }
func (s *feedbackSpySelector) Observe(fb RoundFeedback)    { s.observe(fb) }

// TestAsyncValidation pins the configuration guards of the async policies.
func TestAsyncValidation(t *testing.T) {
	t.Parallel()
	base := func() Config { return asyncConfig(t, 5, 1, Buffered{K: 2}) }

	cfg := base()
	cfg.Deadline = 1 // buffered has no deadline concept (needs devices anyway)
	if _, err := Run(cfg); err == nil {
		t.Fatal("buffered + deadline accepted")
	}

	cfg = base()
	cfg.StragglerRate = 0.1
	if _, err := Run(cfg); err == nil {
		t.Fatal("buffered + legacy straggler rate accepted")
	}

	cfg = base()
	cfg.FedDynAlpha = 0.1
	if _, err := Run(cfg); err == nil {
		t.Fatal("buffered + FedDyn accepted")
	}

	cfg = base()
	cfg.Aggregation = SemiSync{}
	cfg.Deadline = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("semisync without deadline accepted")
	}

	cfg = base()
	cfg.Aggregation = Buffered{K: -1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative buffer size accepted")
	}

	cfg = base()
	cfg.Aggregation = Buffered{K: cfg.PartiesPerRound + 1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("buffer size exceeding the pipeline accepted")
	}
}

// TestBufferedNoDuplicateArrivalsInBuffer covers the partial-refill case:
// with a full-sized buffer (K = pipeline) over a churn fleet, the drain must
// re-dispatch mid-cycle whenever offline draws leave the pipeline short, and
// a party must never appear twice in one aggregation buffer (popped parties
// stay reserved until the fold) — a selector keying state by party ID would
// count the duplicate twice.
func TestBufferedNoDuplicateArrivalsInBuffer(t *testing.T) {
	t.Parallel()
	cfg := determinismConfig(t, 13, 0)
	cfg.StragglerRate = 0
	cfg.StragglerBias = 0
	cfg.Aggregation = Buffered{K: 4}
	cfg.PartiesPerRound = 4
	cfg.Rounds = 6
	cfg.EvalEvery = 1
	dev := device.Lognormal()
	dev.Availability = device.Availability{Kind: device.Churn, OnlineProb: 0.5}
	AttachDevices(cfg.Parties, dev, rng.New(0xD0B1))
	sel := &dupCheckSelector{inner: &rotatingSelector{n: 16}, t: t}
	cfg.Selector = sel
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.History {
		if h.Completed != 4 {
			t.Fatalf("round %d folded %d arrivals, want K=4", h.Round, h.Completed)
		}
	}
	if sel.observed == 0 {
		t.Fatal("selector observed no feedback")
	}
}

// dupCheckSelector forwards to an inner selector and fails the test if any
// feedback breaks the invariants selectors rely on: Completed and
// Stragglers are duplicate-free, and Stragglers is a subset of Selected (so
// straggler rates never exceed 1).
type dupCheckSelector struct {
	inner    Selector
	t        *testing.T
	observed int
}

func (s *dupCheckSelector) Name() string            { return s.inner.Name() }
func (s *dupCheckSelector) Select(r, tgt int) []int { return s.inner.Select(r, tgt) }
func (s *dupCheckSelector) Observe(fb RoundFeedback) {
	s.observed++
	seen := map[int]bool{}
	for _, r := range fb.Completed {
		if seen[r.ID] {
			s.t.Errorf("round %d: party %d appears twice in Completed", fb.Round, r.ID)
		}
		seen[r.ID] = true
	}
	selected := map[int]bool{}
	for _, id := range fb.Selected {
		selected[id] = true
	}
	strag := map[int]bool{}
	for _, id := range fb.Stragglers {
		if strag[id] {
			s.t.Errorf("round %d: party %d appears twice in Stragglers", fb.Round, id)
		}
		strag[id] = true
		if !selected[id] {
			s.t.Errorf("round %d: straggler %d not in Selected", fb.Round, id)
		}
	}
	if len(fb.Stragglers) > len(fb.Selected) {
		s.t.Errorf("round %d: straggler rate %d/%d exceeds 1", fb.Round, len(fb.Stragglers), len(fb.Selected))
	}
	s.inner.Observe(fb)
}

// emptySelector returns no candidates — the broken-selector condition the
// engine must report in every aggregation mode.
type emptySelector struct{}

func (emptySelector) Name() string          { return "empty" }
func (emptySelector) Select(_, _ int) []int { return nil }
func (emptySelector) Observe(RoundFeedback) {}

// TestAsyncRejectsEmptySelector mirrors the sync engine's no-parties guard:
// a selector with no candidates at all must error instead of completing a
// zero-training run.
func TestAsyncRejectsEmptySelector(t *testing.T) {
	t.Parallel()
	for _, policy := range asyncPolicies() {
		cfg := asyncConfig(t, 3, 1, policy)
		cfg.Selector = emptySelector{}
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s completed with an empty selector", policy.Name())
		}
	}
}

// TestStalenessDiscount pins the discount formula 2^(−s/H).
func TestStalenessDiscount(t *testing.T) {
	t.Parallel()
	if got := stalenessDiscount(0, 4); got != 1 {
		t.Fatalf("fresh update discounted: %v", got)
	}
	if got := stalenessDiscount(4, 4); got != 0.5 {
		t.Fatalf("half-life discount %v, want 0.5", got)
	}
	if got := stalenessDiscount(8, 4); got != 0.25 {
		t.Fatalf("two half-lives discount %v, want 0.25", got)
	}
}

// TestPolicyByName pins the name → policy mapping used by the experiment
// layer and the public API.
func TestPolicyByName(t *testing.T) {
	t.Parallel()
	p, err := PolicyByName("", 0, 0)
	if err != nil || p.Name() != "sync" {
		t.Fatalf("empty name: %v %v", p, err)
	}
	p, err = PolicyByName("buffered", 5, 2)
	if err != nil || p.(Buffered).K != 5 || p.(Buffered).StalenessHalfLife != 2 {
		t.Fatalf("buffered: %#v %v", p, err)
	}
	p, err = PolicyByName("semisync", 0, 3)
	if err != nil || p.(SemiSync).StalenessHalfLife != 3 {
		t.Fatalf("semisync: %#v %v", p, err)
	}
	if _, err := PolicyByName("bogus", 0, 0); err == nil {
		t.Fatal("bogus policy name accepted")
	}
	// A knob the policy has no use for is refused, not dropped.
	for _, tc := range []struct {
		name      string
		k         int
		halfLife  float64
		knobInErr string
	}{
		{"sync", 4, 0, "BufferSize"},
		{"", 0, 2, "StalenessHalfLife"},
		{"semisync", 4, 2, "BufferSize"},
	} {
		if _, err := PolicyByName(tc.name, tc.k, tc.halfLife); err == nil || !strings.Contains(err.Error(), tc.knobInErr) {
			t.Fatalf("%q with K %d, half-life %v: err %v, want one naming %s", tc.name, tc.k, tc.halfLife, err, tc.knobInErr)
		}
	}
}
