package experiment

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

// TestRunTournamentSmoke runs the full registered-selector tournament at the
// unit-test scale and checks the full ranking: every selector appears in
// every arm, per-arm ranks are a permutation, scores are normalized, rows
// come back best first, and the rendered table leaks no NaN or raw -1
// sentinel cells.
func TestRunTournamentSmoke(t *testing.T) {
	t.Parallel()
	var lines []string
	table := runSweep(t, tournamentSweep, Options{Scale: tinyScale(), Seed: 21,
		Progress: func(s string) { lines = append(lines, s) }}, nil)
	ranking := rank(table)
	selectors := ExtendedStrategies()
	if len(ranking.Rows) != len(selectors) {
		t.Fatalf("%d rows, want %d (every registered selector)", len(ranking.Rows), len(selectors))
	}
	arms := table.Rows
	if len(arms) != 4 {
		t.Fatalf("%d arms, want 4", len(arms))
	}
	if len(lines) != len(selectors)*len(arms) {
		t.Fatalf("progress reported %d cells, want %d", len(lines), len(selectors)*len(arms))
	}
	seen := map[string]bool{}
	for _, row := range ranking.Rows {
		if seen[row.Selector] {
			t.Fatalf("selector %q ranked twice", row.Selector)
		}
		seen[row.Selector] = true
		if len(row.Cells) != len(arms) || len(row.Ranks) != len(arms) {
			t.Fatalf("%s has %d cells and %d ranks, want %d", row.Selector, len(row.Cells), len(row.Ranks), len(arms))
		}
		if row.Score < 0 || row.Score > 1 || math.IsNaN(row.Score) {
			t.Fatalf("%s score %v out of [0,1]", row.Selector, row.Score)
		}
		for a, cell := range row.Cells {
			if cell.PeakAccuracy <= 0 || cell.PeakAccuracy > 1 {
				t.Fatalf("cell %v/%s peak accuracy %v", arms[a].Labels, row.Selector, cell.PeakAccuracy)
			}
		}
	}
	for s, name := range selectors {
		if !seen[name] {
			t.Fatalf("registered selector %q missing from the ranking", name)
		}
		// A ranked row carries the selector's own cells, not a neighbour's.
		for _, row := range ranking.Rows {
			for a := range arms {
				if row.Selector == name && row.Cells[a].PeakAccuracy != table.Cells[a][s].PeakAccuracy {
					t.Fatalf("row %s arm %v holds another selector's cell", name, arms[a].Labels)
				}
			}
		}
	}
	// Per-arm ranks are a permutation of 0..N-1, and wins count the zeros.
	for a := range arms {
		got := map[int]bool{}
		for _, row := range ranking.Rows {
			got[row.Ranks[a]] = true
		}
		for r := 0; r < len(ranking.Rows); r++ {
			if !got[r] {
				t.Fatalf("arm %v missing rank %d", arms[a].Labels, r)
			}
		}
	}
	for _, row := range ranking.Rows {
		wins := 0
		for _, r := range row.Ranks {
			if r == 0 {
				wins++
			}
		}
		if wins != row.Wins {
			t.Fatalf("%s: %d wins recorded, %d first places", row.Selector, row.Wins, wins)
		}
	}
	// Rows are sorted best first.
	for i := 1; i < len(ranking.Rows); i++ {
		if ranking.Rows[i].Score > ranking.Rows[i-1].Score {
			t.Fatalf("rows unsorted: %s (%.3f) after %s (%.3f)",
				ranking.Rows[i].Selector, ranking.Rows[i].Score, ranking.Rows[i-1].Selector, ranking.Rows[i-1].Score)
		}
	}
	if got := ranking.CleanArmReached(); got < 0 || got > len(ranking.Rows) {
		t.Fatalf("clean-arm reached count %d out of range", got)
	}

	var buf bytes.Buffer
	ranking.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Selector tournament", "clean arm reached by", "non-iid", "byzantine-20%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Sentinel hygiene: an unreached cell must render as "never (...)", not a
	// raw -1, and no arithmetic on empty arms may leak NaN into the table.
	if strings.Contains(out, "NaN") {
		t.Fatalf("rendered table leaks NaN:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		for _, field := range strings.Split(line, "\t") {
			if strings.HasPrefix(field, "-1") {
				t.Fatalf("rendered table leaks raw -1 sentinel in %q:\n%s", line, out)
			}
		}
	}
}

// TestRankOrdersAndScores pins the ranking pass on a hand-built table:
// reached cells rank by time-to-target before unreached ones by peak
// accuracy, names break ties, and the score is the mean of normalized rank
// points.
func TestRankOrdersAndScores(t *testing.T) {
	t.Parallel()
	table := &Table{
		Sweep: Sweep{Rows: []Arm{{Labels: []string{cleanArm}}, {Labels: []string{"hard"}}}, Cols: strategyArms("b", "a", "c")},
		Cells: [][]Cell{
			{{TimeToTarget: 20}, {TimeToTarget: 10}, {TimeToTarget: -1, PeakAccuracy: 0.5}},
			{{TimeToTarget: -1, PeakAccuracy: 0.4}, {TimeToTarget: -1, PeakAccuracy: 0.4}, {TimeToTarget: 99}},
		},
	}
	ranking := rank(table)
	want := []struct {
		selector string
		score    float64
		wins     int
		ranks    [2]int
	}{
		{"a", 0.75, 1, [2]int{0, 1}},
		{"c", 0.5, 1, [2]int{2, 0}},
		{"b", 0.25, 0, [2]int{1, 2}},
	}
	for i, w := range want {
		got := ranking.Rows[i]
		if got.Selector != w.selector || got.Score != w.score || got.Wins != w.wins || got.Ranks[0] != w.ranks[0] || got.Ranks[1] != w.ranks[1] {
			t.Fatalf("rank %d: got %s score %v wins %d ranks %v, want %+v", i+1, got.Selector, got.Score, got.Wins, got.Ranks, w)
		}
	}
	if got := ranking.CleanArmReached(); got != 2 {
		t.Fatalf("clean arm reached by %d, want 2", got)
	}
}

// TestRunTournamentValidatesSelectors pins the edge validation: unknown and
// duplicated selector names fail before any compute is spent, and the error
// lists what would have worked.
func TestRunTournamentValidatesSelectors(t *testing.T) {
	t.Parallel()
	err := Run(io.Discard, "tournament", Options{Scale: tinyScale(), Seed: 1, Selectors: []string{"psychic"}})
	if err == nil {
		t.Fatal("unknown selector accepted")
	}
	if !strings.Contains(err.Error(), "psychic") || !strings.Contains(err.Error(), StrategyFLIPS) {
		t.Fatalf("error %q should name the typo and the registered list", err)
	}
	if err := Run(io.Discard, "tournament", Options{Scale: tinyScale(), Seed: 1, Selectors: []string{StrategyRandom, StrategyRandom}}); err == nil {
		t.Fatal("duplicate selector accepted")
	}
}
