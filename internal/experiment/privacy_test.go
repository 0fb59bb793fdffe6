package experiment

import (
	"math"
	"strings"
	"testing"

	"flips/internal/dataset"
	"flips/internal/fl"
)

// smokeLadder trims the ladder to two rungs small enough for the unit-test
// budget: the plaintext baseline and full masking with dropout recovery.
func smokeLadder(s *Sweep) { s.Rows = []Arm{s.Rows[0], s.Rows[2]} }

func TestRunPrivacySweepSmoke(t *testing.T) {
	t.Parallel()
	var lines []string
	table := runSweep(t, privacySweep, Options{Scale: tinyScale(), Seed: 17,
		Progress: func(s string) { lines = append(lines, s) }}, smokeLadder)
	if len(table.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(table.Rows))
	}
	for r, row := range table.Rows {
		if len(table.Cells[r]) != len(table.Cols) {
			t.Fatalf("arm %v has %d cells, want %d", row.Labels, len(table.Cells[r]), len(table.Cols))
		}
		for c, cell := range table.Cells[r] {
			if cell.PeakAccuracy <= 0 || cell.PeakAccuracy > 1 {
				t.Fatalf("cell %v/%s peak accuracy %v", row.Labels, table.Cols[c].Name, cell.PeakAccuracy)
			}
			if simTime(cell) <= 0 {
				t.Fatalf("cell %v/%s sim time %v", row.Labels, table.Cols[c].Name, simTime(cell))
			}
		}
	}
	// The plaintext arm is its own slowdown baseline: ×1 where the target was
	// reached, NaN where the baseline itself never got there.
	for c, cell := range table.Cells[0] {
		name := table.Cols[c].Name
		if cell.TimeToTarget > 0 && cell.Ratio != 1 {
			t.Fatalf("plaintext cell %s slowdown %v, want 1", name, cell.Ratio)
		}
		if cell.TimeToTarget < 0 && !math.IsNaN(cell.Ratio) {
			t.Fatalf("unreached plaintext cell %s slowdown %v, want NaN", name, cell.Ratio)
		}
		if aborts := cell.Counts[0]; aborts != 0 {
			t.Fatalf("plaintext cell %s reports %d mask aborts", name, aborts)
		}
	}
	if want := 2 * len(table.Cols); len(lines) != want {
		t.Fatalf("progress reported %d cells, want %d", len(lines), want)
	}
	if !strings.Contains(lines[0], "aborts=") || !strings.Contains(lines[0], "dropouts=") {
		t.Fatalf("progress line %q missing the abort and dropout counters", lines[0])
	}
	out := rendered(table)
	for _, want := range []string{"Privacy-ladder sweep", "plaintext", "masked(t=2)", "slow"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestBuildWiresPrivacy pins the Setting plumbing: the privacy configuration
// reaches fl.Config, and an illegal combination is rejected by the built
// config's own validation.
func TestBuildWiresPrivacy(t *testing.T) {
	t.Parallel()
	s := Setting{
		Spec: dataset.ECG(), Algorithm: AlgoFedYogi, Alpha: 0.3,
		PartyFraction: 0.2, Strategy: StrategyRandom,
		Privacy: fl.PrivacyConfig{Mask: true, Clip: 1, Epsilon: 2, ShareThreshold: 3},
		Seed:    23,
	}
	built, err := Build(s, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if built.Config.Privacy != s.Privacy {
		t.Fatalf("privacy config %+v not threaded (got %+v)", s.Privacy, built.Config.Privacy)
	}
	if err := Validate(s, tinyScale()); err != nil {
		t.Fatalf("legal privacy config rejected: %v", err)
	}
	// Masking is only legal on the mean fold; Validate is what the job
	// server leans on to refuse such a submission.
	s.Fold = "median"
	if err := Validate(s, tinyScale()); err == nil {
		t.Fatal("masking over a robust fold validated")
	}
}
