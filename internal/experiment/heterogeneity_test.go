package experiment

import (
	"math"
	"strings"
	"testing"

	"flips/internal/dataset"
	"flips/internal/device"
)

func TestBuildWithDeviceAttachesFleet(t *testing.T) {
	t.Parallel()
	dev := device.Lognormal()
	dev.Availability = device.Availability{Kind: device.Churn, OnlineProb: 0.8}
	s := Setting{
		Spec: dataset.ECG(), Algorithm: AlgoFedYogi, Alpha: 0.3,
		PartyFraction: 0.2, Strategy: StrategyTiFL, Device: &dev, Deadline: 2, Seed: 9,
	}
	built, err := Build(s, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range built.Parties {
		if p.Device == nil {
			t.Fatalf("party %d missing device", i)
		}
	}
	if built.Config.Deadline != 2 {
		t.Fatalf("deadline %v not threaded", built.Config.Deadline)
	}
	// Invalid device configs are rejected at build time.
	bad := device.Config{ComputeSigma: -1}
	s.Device = &bad
	if _, err := Build(s, tinyScale()); err == nil {
		t.Fatal("invalid device config accepted")
	}
}

// TestBuildLegacyUnchangedByDeviceCode pins backward compatibility: a
// Device-less build must not consume any extra randomness, so pre-device
// tables reproduce byte-exactly.
func TestBuildLegacyUnchangedByDeviceCode(t *testing.T) {
	t.Parallel()
	s := Setting{
		Spec: dataset.ECG(), Algorithm: AlgoFedAvg, Alpha: 0.3,
		PartyFraction: 0.2, Strategy: StrategyRandom, TargetAccuracy: 0.6, Seed: 21,
	}
	a, err := runSetting(s, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSetting(s, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.PeakAccuracy) != math.Float64bits(b.PeakAccuracy) {
		t.Fatal("legacy setting not reproducible")
	}
}

func TestRunSettingDeviceReportsSimTime(t *testing.T) {
	t.Parallel()
	dev := device.Lognormal()
	s := Setting{
		Spec: dataset.ECG(), Algorithm: AlgoFedAvg, Alpha: 0.6,
		PartyFraction: 0.25, Strategy: StrategyRandom, Device: &dev,
		TargetAccuracy: 0.99, Seed: 5,
	}
	scale := tinyScale()
	scale.Repeats = 2
	res, err := runSetting(s, scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimTime <= 0 {
		t.Fatalf("device run sim time %v", res.SimTime)
	}
	// Unreachable target: both clocks report the sentinel.
	if res.RoundsToTarget != -1 || res.TimeToTarget != -1 {
		t.Fatalf("unreachable target: rtt=%d tta=%v", res.RoundsToTarget, res.TimeToTarget)
	}
}

func TestRunHeterogeneityShapeAndRender(t *testing.T) {
	t.Parallel()
	scale := tinyScale()
	if testing.Short() {
		scale = Scale{Parties: 12, Rounds: 4, TrainSize: 600, TestSize: 150, Repeats: 1, EvalEvery: 2}
	}
	table := runSweep(t, hetSweep, Options{Scale: scale, Seed: 3}, nil)
	if len(table.Rows) != 9 { // 3 availability × 3 deadlines
		t.Fatalf("het table has %d rows, want 9", len(table.Rows))
	}
	scenarios := map[string]bool{}
	for r, row := range table.Rows {
		scenarios[row.Labels[0]] = true
		if len(table.Cells[r]) != len(hetStrategies) {
			t.Fatalf("row %v has %d cells", row.Labels, len(table.Cells[r]))
		}
		for c, cell := range table.Cells[r] {
			if simTime(cell) <= 0 {
				t.Fatalf("row %v strategy %s: no simulated time", row.Labels, table.Cols[c].Name)
			}
		}
	}
	if len(scenarios) != 3 {
		t.Fatalf("scenarios %v", scenarios)
	}
	out := rendered(table)
	for _, want := range []string{"time to attain target accuracy", "FLIPS tta", "OORT rtt", "always-on", "churn-80%", "diurnal", "none"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFormatSimDuration(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{-1, "never"},
		{42, "42s"},
		{300, "5.0m"},
		{7200, "2.0h"},
	} {
		if got := FormatSimDuration(tc.in); got != tc.want {
			t.Fatalf("FormatSimDuration(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
