package fl

import (
	"slices"
	"testing"

	"flips/internal/device"
	"flips/internal/model"
	"flips/internal/rng"
)

// deviceTestConfig builds a small device-model job over all parties with an
// observing selector, so tests can inspect per-round straggler decisions.
func deviceTestConfig(t *testing.T, seed uint64, parties int, dev device.Config, deadline float64) (Config, *fixedSelector) {
	t.Helper()
	pool, test, spec := buildTestJob(t, seed, parties, 0.5)
	AttachDevices(pool, dev, rng.New(seed+0xD))
	ids := make([]int, parties)
	for i := range ids {
		ids[i] = i
	}
	sel := &fixedSelector{ids: ids}
	return Config{
		Parties:         pool,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        sel,
		Rounds:          6,
		PartiesPerRound: parties,
		Deadline:        deadline,
		Seed:            seed,
	}, sel
}

func TestDeviceValidation(t *testing.T) {
	t.Parallel()
	parties, test, spec := buildTestJob(t, 41, 6, 0.5)
	base := Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        &fixedSelector{ids: []int{0, 1, 2}},
		Rounds:          1,
		PartiesPerRound: 3,
		Seed:            1,
	}
	// Deadline without devices is a misconfiguration, not a silent no-op.
	cfg := base
	cfg.Deadline = 5
	if _, err := Run(cfg); err == nil {
		t.Fatal("deadline without devices accepted")
	}
	// Negative deadlines are rejected.
	cfg = base
	cfg.Deadline = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative deadline accepted")
	}
	// Devices must be attached to the whole pool or none.
	cfg = base
	cfg.Parties = append([]*Party(nil), parties...)
	cfg.Parties[2] = &Party{ID: 2, Data: parties[2].Data, LabelDist: parties[2].LabelDist, Latency: 1,
		Device: device.NewForParty(device.Uniform(), 0, rng.New(9))}
	if _, err := Run(cfg); err == nil {
		t.Fatal("mixed device attachment accepted")
	}
}

// TestDeviceDeadlineDropsSlowParties pins the deadline semantics: with an
// always-on heterogeneous fleet, exactly the parties whose simulated round
// duration exceeds the deadline straggle, every round.
func TestDeviceDeadlineDropsSlowParties(t *testing.T) {
	t.Parallel()
	dev := device.Lognormal()
	cfg, sel := deviceTestConfig(t, 42, 16, dev, 0)
	// Set the deadline midway through the fleet's duration range so both
	// sides are non-empty for any seed.
	paramBytes := int64(model.NewLogReg(len(cfg.Test[0].X), cfg.NumClasses).NumParams()) * 8
	var minDur, maxDur float64
	for i, p := range cfg.Parties {
		d := p.Device.RoundDuration(p.NumSamples(), 1, paramBytes)
		if i == 0 || d < minDur {
			minDur = d
		}
		if d > maxDur {
			maxDur = d
		}
	}
	deadline := (minDur + maxDur) / 2
	cfg.Deadline = deadline
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow := map[int]bool{}
	for _, p := range cfg.Parties {
		slow[p.ID] = p.Device.RoundDuration(p.NumSamples(), 1, paramBytes) > deadline
	}
	for _, fb := range sel.observed {
		for _, id := range fb.Stragglers {
			if !slow[id] {
				t.Fatalf("round %d: fast party %d straggled under always-on availability", fb.Round, id)
			}
		}
		for _, r := range fb.Completed {
			if slow[r.ID] {
				t.Fatalf("round %d: slow party %d completed past the deadline", fb.Round, r.ID)
			}
			if d := r.Duration; d <= 0 || d > deadline {
				t.Fatalf("round %d: completed party %d duration %v outside (0, %v]", fb.Round, r.ID, d, deadline)
			}
		}
		if len(fb.Stragglers) == 0 {
			t.Fatalf("round %d: no stragglers despite slow parties", fb.Round)
		}
	}
	// Every straggler round waits out the full deadline, so the simulated
	// clock advances by exactly Deadline per round.
	for _, h := range res.History {
		if !bitsEqual(h.RoundTime, deadline) {
			t.Fatalf("round %d time %v, want deadline %v", h.Round, h.RoundTime, deadline)
		}
	}
	if res.SimTime <= 0 {
		t.Fatal("no simulated time accumulated")
	}
}

// TestDeviceChurnProducesOfflineStragglers checks the availability process:
// under heavy churn with no deadline, offline parties straggle and the round
// clock is the slowest completing party.
func TestDeviceChurnProducesOfflineStragglers(t *testing.T) {
	t.Parallel()
	dev := device.Uniform()
	dev.Availability = device.Availability{Kind: device.Churn, OnlineProb: 0.5}
	cfg, sel := deviceTestConfig(t, 43, 20, dev, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	totalStragglers := 0
	for _, fb := range sel.observed {
		totalStragglers += len(fb.Stragglers)
		for _, r := range fb.Completed {
			if slices.Contains(fb.Stragglers, r.ID) {
				t.Fatalf("round %d: offline party %d has a report", fb.Round, r.ID)
			}
		}
	}
	if totalStragglers == 0 {
		t.Fatal("churn(0.5) produced no offline stragglers over 6 rounds of 20 parties")
	}
	// With no deadline, RoundTime is the slowest completing party, and —
	// since every online party completes — only completers are billed for
	// communication: offline parties never contact the server.
	paramBytes := int64(model.NewLogReg(len(cfg.Test[0].X), cfg.NumClasses).NumParams()) * 8
	for i, fb := range sel.observed {
		var slowest float64
		for _, r := range fb.Completed {
			slowest = max(slowest, r.Duration)
		}
		if !bitsEqual(res.History[i].RoundTime, slowest) {
			t.Fatalf("round %d time %v, want slowest completer %v", fb.Round, res.History[i].RoundTime, slowest)
		}
		if want := paramBytes * int64(2*len(fb.Completed)); res.History[i].CommBytes != want {
			t.Fatalf("round %d comm %d, want %d (download+upload per completer only)",
				fb.Round, res.History[i].CommBytes, want)
		}
	}
}

// TestLegacySimTimeUsesLatencyProxy: without devices the simulated clock
// still advances, driven by the legacy Latency×Steps durations, so
// time-to-accuracy is defined (unitless) for legacy runs too.
func TestLegacySimTimeUsesLatencyProxy(t *testing.T) {
	t.Parallel()
	parties, test, spec := buildTestJob(t, 44, 10, 0.5)
	sel := &fixedSelector{ids: []int{0, 1, 2, 3}}
	res, err := Run(Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        sel,
		Rounds:          4,
		PartiesPerRound: 4,
		TargetAccuracy:  0.01,
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimTime <= 0 {
		t.Fatal("legacy run accumulated no simulated time")
	}
	var prev float64
	for _, h := range res.History {
		if h.SimTime < prev {
			t.Fatalf("SimTime not monotone: %v after %v", h.SimTime, prev)
		}
		prev = h.SimTime
	}
	// A trivially low target is reached immediately, in rounds and time.
	if res.RoundsToTarget < 0 || res.TimeToTarget < 0 {
		t.Fatalf("target not reached: rounds=%d time=%v", res.RoundsToTarget, res.TimeToTarget)
	}
	if res.TimeToTarget > res.SimTime {
		t.Fatalf("time-to-target %v exceeds total sim time %v", res.TimeToTarget, res.SimTime)
	}
}

// TestTimeToTargetUnreachedIsMinusOne pins the sentinel for unreached
// targets on both clocks.
func TestTimeToTargetUnreachedIsMinusOne(t *testing.T) {
	t.Parallel()
	cfg, _ := deviceTestConfig(t, 45, 8, device.Uniform(), 0)
	cfg.TargetAccuracy = 0.999
	cfg.Rounds = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsToTarget != -1 || res.TimeToTarget != -1 {
		t.Fatalf("unreachable target reported rounds=%d time=%v", res.RoundsToTarget, res.TimeToTarget)
	}
}

// TestDeviceFeedbackFeedsSelectors: Oort/TiFL's signal — PartyReport.Duration —
// carries the device-simulated duration, identical across rounds for an
// always-on fleet (same workload every round).
func TestDeviceFeedbackFeedsSelectors(t *testing.T) {
	t.Parallel()
	cfg, sel := deviceTestConfig(t, 46, 8, device.Lognormal(), 0)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(sel.observed) < 2 {
		t.Fatalf("observed %d rounds", len(sel.observed))
	}
	first := map[int]float64{}
	for _, r := range sel.observed[0].Completed {
		first[r.ID] = r.Duration
	}
	for _, fb := range sel.observed[1:] {
		for _, r := range fb.Completed {
			if !bitsEqual(r.Duration, first[r.ID]) {
				t.Fatalf("party %d duration drifted: %v vs %v", r.ID, r.Duration, first[r.ID])
			}
		}
	}
}
