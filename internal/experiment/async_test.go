package experiment

import (
	"strings"
	"testing"

	"flips/internal/dataset"
	"flips/internal/device"
)

// TestBuildAggregationThreading pins the Setting → fl.Config mapping of the
// aggregation knobs.
func TestBuildAggregationThreading(t *testing.T) {
	t.Parallel()
	dev := device.Lognormal()
	s := Setting{
		Spec: dataset.ECG(), Algorithm: AlgoFedYogi, Alpha: 0.3,
		PartyFraction: 0.2, Strategy: StrategyRandom, Device: &dev,
		Aggregation: "buffered", BufferSize: 4, StalenessHalfLife: 2, Seed: 9,
	}
	built, err := Build(s, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if got := built.Config.Aggregation.Name(); got != "buffered" {
		t.Fatalf("aggregation %q not threaded", got)
	}
	s.Aggregation = "bogus"
	if _, err := Build(s, tinyScale()); err == nil {
		t.Fatal("bogus aggregation accepted")
	}
}

// TestRunSettingAsyncModes runs one tiny cell per async mode end-to-end
// through the experiment layer.
func TestRunSettingAsyncModes(t *testing.T) {
	t.Parallel()
	dev := device.Lognormal()
	for _, tc := range []struct {
		aggregation string
		deadline    float64
	}{
		{"buffered", 0},
		{"semisync", 1},
	} {
		s := Setting{
			Spec: dataset.ECG(), Algorithm: AlgoFedYogi, Alpha: 0.3,
			PartyFraction: 0.25, Strategy: StrategyRandom, Device: &dev,
			Aggregation: tc.aggregation, Deadline: tc.deadline,
			TargetAccuracy: 0.99, Seed: 5,
		}
		res, err := runSetting(s, tinyScale())
		if err != nil {
			t.Fatalf("%s: %v", tc.aggregation, err)
		}
		if res.SimTime <= 0 {
			t.Fatalf("%s: no simulated time", tc.aggregation)
		}
	}
}

func TestRunAsyncShapeAndRender(t *testing.T) {
	t.Parallel()
	scale := tinyScale()
	if testing.Short() {
		scale = Scale{Parties: 12, Rounds: 4, TrainSize: 600, TestSize: 150, Repeats: 1, EvalEvery: 2}
	}
	table := runSweep(t, asyncSweep, Options{Scale: scale, Seed: 3}, nil)
	if len(table.Rows) != 5 { // sync + 2 buffered + 2 semisync arms
		t.Fatalf("async table has %d rows, want 5", len(table.Rows))
	}
	for r, row := range table.Rows {
		if len(table.Cells[r]) != len(hetStrategies) {
			t.Fatalf("row %v has %d cells", row.Labels, len(table.Cells[r]))
		}
		for c, cell := range table.Cells[r] {
			if cell.SimTime <= 0 {
				t.Fatalf("row %v strategy %s: no simulated time", row.Labels, table.Cols[c].Name)
			}
		}
	}
	out := rendered(table)
	for _, want := range []string{"Aggregation-mode sweep", "FLIPS tta", "OORT rtt", "sync", "buffered H=1", "semisync H=4", "churn-80%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRunAsyncTraceAvailability replays a tiny availability trace through
// the sweep: the trace is mapped onto parties by ID, consumes no RNG, and
// the rendered table names it.
func TestRunAsyncTraceAvailability(t *testing.T) {
	t.Parallel()
	trace, err := device.ParseTrace([]byte("1,1,0,1\n0,1,1,1\n1,0,1,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	scale := Scale{Parties: 10, Rounds: 4, TrainSize: 500, TestSize: 120, Repeats: 1, EvalEvery: 2}
	table := runSweep(t, asyncSweep, Options{Scale: scale, Seed: 7, Trace: trace}, nil)
	if table.Base.Device.Availability.Trace != trace {
		t.Fatal("trace not threaded into the sweep's fleet")
	}
	if out := rendered(table); !strings.Contains(out, "trace (3 devices)") {
		t.Fatalf("render missing trace note:\n%s", out)
	}
}
