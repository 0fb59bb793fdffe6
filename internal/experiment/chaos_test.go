package experiment

import (
	"math"
	"strings"
	"testing"

	"flips/internal/chaos"
	"flips/internal/dataset"
	"flips/internal/fl"
)

// smokeMatrix is a 2-arm × 2-fold × 1-strategy matrix small enough for the
// unit-test budget.
func smokeMatrix() *chaos.Matrix {
	return &chaos.Matrix{
		Faults: []chaos.Arm{
			{Name: "clean"},
			{Name: "byz", Spec: chaos.Spec{Seed: 3, FaultFraction: 0.2, Fault: chaos.FaultByzantine}},
		},
		Folds:      []string{"mean", "median"},
		Strategies: []string{StrategyRandom},
	}
}

func TestRunChaosSweepSmoke(t *testing.T) {
	t.Parallel()
	var lines []string
	table := runSweep(t, chaosSweep, Options{Scale: tinyScale(), Seed: 17, Matrix: smokeMatrix(),
		Progress: func(s string) { lines = append(lines, s) }}, nil)
	if len(table.Rows) != 4 {
		t.Fatalf("%d rows, want 4 (faults × folds)", len(table.Rows))
	}
	for r, row := range table.Rows {
		if len(table.Cells[r]) != 1 {
			t.Fatalf("row %v has %d cells, want 1 strategy", row.Labels, len(table.Cells[r]))
		}
		for _, c := range table.Cells[r] {
			if c.PeakAccuracy <= 0 || c.PeakAccuracy > 1 {
				t.Fatalf("row %v peak accuracy %v", row.Labels, c.PeakAccuracy)
			}
			if c.SimTime <= 0 {
				t.Fatalf("row %v sim time %v", row.Labels, c.SimTime)
			}
			if len(c.Counts) != 1 || c.Counts[0] < 0 {
				t.Fatalf("row %v rejected-update counter %v", row.Labels, c.Counts)
			}
		}
	}
	// The clean arm is its own degradation baseline: ×1 where the target was
	// reached, NaN where the clean cell itself never got there.
	for r := 0; r < 2; r++ {
		c := table.Cells[r][0]
		if c.TimeToTarget > 0 && c.Ratio != 1 {
			t.Fatalf("clean row %v degradation %v, want 1", table.Rows[r].Labels, c.Ratio)
		}
		if c.TimeToTarget < 0 && !math.IsNaN(c.Ratio) {
			t.Fatalf("unreached clean row %v degradation %v, want NaN", table.Rows[r].Labels, c.Ratio)
		}
	}
	if len(lines) != 4 {
		t.Fatalf("progress reported %d cells, want 4", len(lines))
	}
	out := rendered(table)
	for _, want := range []string{"Chaos fault-matrix sweep", "clean", "byz", "median"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestRatioRendering pins the ratio column's three shapes — "×" against a
// baseline that got there, "never" when only the baseline did, "—" without a
// reference — and that a row's baseline is the so-named row under the same
// remaining labels.
func TestRatioRendering(t *testing.T) {
	t.Parallel()
	reached, missed := Cell{TimeToTarget: 10}, Cell{TimeToTarget: -1}
	for _, tc := range []struct {
		cell, base Cell
		want       string
	}{
		{Cell{TimeToTarget: 13.7}, reached, "×1.37"},
		{missed, reached, "never"},
		{reached, missed, "—"},
		{missed, missed, "—"},
	} {
		tc.cell.Ratio = ratio(tc.cell, tc.base)
		if got := fieldRatio("").Text(tc.cell); got != tc.want {
			t.Fatalf("ratio of %v over %v renders %q, want %q", tc.cell.TimeToTarget, tc.base.TimeToTarget, got, tc.want)
		}
	}
	s := Sweep{Baseline: "clean", Rows: []Arm{
		{Labels: []string{"clean", "mean"}}, {Labels: []string{"clean", "median"}},
		{Labels: []string{"byz", "mean"}}, {Labels: []string{"byz", "median"}},
	}}
	for r, want := range []int{0, 1, 0, 1} {
		if got := s.baselineRow(r); got != want {
			t.Fatalf("row %v baseline %d, want %d", s.Rows[r].Labels, got, want)
		}
	}
	s.Baseline = "absent"
	if got := s.baselineRow(2); got != -1 {
		t.Fatalf("baseline of a sweep without its baseline arm: %d", got)
	}
}

// TestByzantineRobustFoldAcceptance is ISSUE 7's headline acceptance pin:
// with 20% of parties byzantine, at least one robust fold still reaches the
// dataset's target accuracy while plain FedAvg averaging does not — the
// byzantine minority owns enough of every weighted average to keep the mean
// away from the target, and the coordinate-wise median discards it.
func TestByzantineRobustFoldAcceptance(t *testing.T) {
	t.Parallel()
	scale := Scale{Parties: 20, Rounds: 60, TrainSize: 3000, TestSize: 400, Repeats: 1, EvalEvery: 2, Parallelism: 4}
	byz := chaos.Spec{Seed: 3, FaultFraction: 0.2, Fault: chaos.FaultByzantine}
	target := TargetFor(dataset.ECG())
	run := func(fold string) float64 {
		s := Setting{
			Spec:           dataset.ECG(),
			Algorithm:      AlgoFedAvg,
			Alpha:          0.6,
			PartyFraction:  0.5,
			Strategy:       StrategyRandom,
			Fold:           fold,
			Chaos:          &byz,
			TargetAccuracy: target,
			Seed:           11,
		}
		res, err := runSetting(s, scale)
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakAccuracy
	}
	mean, median := run("mean"), run("median")
	if mean >= target {
		t.Fatalf("plain FedAvg mean reached %.3f under 20%% byzantine parties — the attack should keep it below the %.2f target", mean, target)
	}
	if median < target {
		t.Fatalf("coordinate-wise median peaked at %.3f under 20%% byzantine parties, below the %.2f target", median, target)
	}
	if median <= mean {
		t.Fatalf("median (%.3f) should beat mean (%.3f) under byzantine corruption", median, mean)
	}
}

// TestBuildWiresFoldAndChaos pins the Setting plumbing: fold and injector
// reach fl.Config, and a label-flip scenario rewrites exactly the faulty
// parties' labels at build time.
func TestBuildWiresFoldAndChaos(t *testing.T) {
	t.Parallel()
	spec := chaos.Spec{Seed: 5, FaultFraction: 0.25, Fault: chaos.FaultLabelFlip}
	s := Setting{
		Spec: dataset.ECG(), Algorithm: AlgoFedAvg, Alpha: 0.3,
		PartyFraction: 0.2, Strategy: StrategyRandom, Fold: "trimmed-mean",
		Chaos: &spec, Seed: 23,
	}
	poisoned, err := Build(s, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if poisoned.Config.Fold.Kind != fl.FoldTrimmedMean {
		t.Fatalf("fold kind %v not threaded", poisoned.Config.Fold.Kind)
	}
	if poisoned.Config.Faults == nil {
		t.Fatal("chaos injector not threaded into fl.Config")
	}
	s.Chaos = nil
	s.Fold = ""
	clean, err := Build(s, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.New(spec, len(clean.Parties))
	if err != nil {
		t.Fatal(err)
	}
	faulty := make(map[int]bool)
	for id := range clean.Parties {
		// With two classes a flip always lands on the other one, so a probe
		// sample tells a faulty party from a clean one.
		probe := []dataset.Sample{{Y: 0}}
		inj.FlipLabels(id, probe, 2)
		if probe[0].Y != 0 {
			faulty[id] = true
		}
	}
	if len(faulty) == 0 {
		t.Fatal("label-flip scenario drew no faulty parties")
	}
	for id := range clean.Parties {
		differs := false
		for i := range clean.Parties[id].Data {
			if clean.Parties[id].Data[i].Y != poisoned.Parties[id].Data[i].Y {
				differs = true
				break
			}
		}
		if differs != faulty[id] {
			t.Fatalf("party %d: labels differ=%v but faulty=%v", id, differs, faulty[id])
		}
	}
	// Bad fold and bad chaos specs are rejected at build time.
	s.Fold = "geometric"
	if _, err := Build(s, tinyScale()); err == nil {
		t.Fatal("unknown fold accepted")
	}
	s.Fold = ""
	s.Chaos = &chaos.Spec{OutageProb: 2}
	if _, err := Build(s, tinyScale()); err == nil {
		t.Fatal("invalid chaos spec accepted")
	}
}
