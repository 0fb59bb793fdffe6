package experiment

import (
	"fmt"
	"io"
	"sort"

	"flips/internal/chaos"
	"flips/internal/device"
)

// The selector tournament ranks selection strategies on time-to-target-
// accuracy across a small grid of fleet regimes: a clean always-on baseline,
// a harsher non-IID partition, a churning fleet, and a byzantine minority
// behind a robust fold. One row arm is one regime; every selector runs every
// regime under identical seeds, so the only varying factor in a column is
// the selection policy. It is the same Sweep as the others plus a ranking
// pass: the final order is the across-regime mean of normalized per-regime
// ranks — a selector wins by being consistently near the top, not by one
// lucky cell.

// tournamentSweep declares the regimes × selectors grid; o.Selectors (empty =
// every registered selector, registry order) are the competitors. The clean
// regime doubles as the CI sanity anchor: a healthy always-on fleet at the
// milder non-IIDness, where every reasonable selector should attain the
// target.
func tournamentSweep(o Options) (Sweep, error) {
	selectors := o.Selectors
	if len(selectors) == 0 {
		selectors = ExtendedStrategies()
	}
	base := ecgBase(0.6, 0.25, o.Seed)
	base.Deadline = 3
	rounds := RoundsFor(base.Spec, o.Scale)
	alwaysOn := lognormalFleet(device.Availability{Kind: device.AlwaysOn})
	churn := lognormalFleet(churn80)
	byzantine := &chaos.Spec{Seed: o.Seed, Fault: chaos.FaultByzantine, FaultFraction: 0.2}
	regime := func(name string, patch func(*Setting)) Arm {
		return Arm{Labels: []string{name}, Patch: patch}
	}
	rows := []Arm{
		regime(cleanArm, func(s *Setting) { s.Device = alwaysOn }),
		regime("non-iid", func(s *Setting) { s.Device, s.Alpha = alwaysOn, 0.3 }),
		regime("churn-80%", func(s *Setting) { s.Device = churn }),
		regime("byzantine-20%", func(s *Setting) { s.Device, s.Fold, s.Chaos = churn, "median", byzantine }),
	}
	return Sweep{
		Title: []string{
			fmt.Sprintf("Selector tournament: %s — %d selectors ranked on time to target accuracy across %d fleet regimes, FL algorithm: fedyogi",
				base.Spec.Name, len(selectors), len(rows)),
			fmt.Sprintf("Target balanced accuracy: %.0f%%, aggregation steps: %d; score is the across-arm mean of normalized rank points (1 = first everywhere)",
				100*base.TargetAccuracy, rounds),
		},
		Base:   base,
		Rounds: rounds,
		Rows:   rows,
		Cols:   strategyArms(selectors...),
	}, nil
}

// RankRow is one selector's full tournament record.
type RankRow struct {
	Selector string
	// Score is the across-regime mean of normalized rank points: rank 0 of N
	// earns 1.0, last earns 0.0. Higher is better.
	Score float64
	// Wins counts regimes where this selector ranked first.
	Wins int
	// Cells and Ranks hold one entry per regime, in regime order; rank 0 is
	// best.
	Cells []Cell
	Ranks []int
}

// Ranking is a finished tournament: the regimes × selectors table and its
// rows, best selector first.
type Ranking struct {
	Table *Table
	Rows  []RankRow
}

// rank orders each regime — reached cells first by time-to-target ascending,
// then unreached by peak accuracy descending; names break every tie so the
// order is total and layout-independent — and sorts selectors by score, wins,
// name.
func rank(t *Table) *Ranking {
	n := len(t.Cols)
	rows := make([]RankRow, n)
	for s, col := range t.Cols {
		rows[s] = RankRow{Selector: col.Name, Cells: make([]Cell, len(t.Rows)), Ranks: make([]int, len(t.Rows))}
	}
	for a, cells := range t.Cells {
		order := make([]int, n)
		for s := range order {
			order[s] = s
		}
		sort.Slice(order, func(i, j int) bool {
			ci, cj := cells[order[i]], cells[order[j]]
			ri, rj := ci.TimeToTarget >= 0, cj.TimeToTarget >= 0
			if ri != rj {
				return ri
			}
			if ri && ci.TimeToTarget != cj.TimeToTarget {
				return ci.TimeToTarget < cj.TimeToTarget
			}
			if ci.PeakAccuracy != cj.PeakAccuracy {
				return ci.PeakAccuracy > cj.PeakAccuracy
			}
			return t.Cols[order[i]].Name < t.Cols[order[j]].Name
		})
		for pos, s := range order {
			rows[s].Cells[a], rows[s].Ranks[a] = cells[s], pos
			points := 1.0
			if n > 1 {
				points = float64(n-1-pos) / float64(n-1)
			}
			rows[s].Score += points / float64(len(t.Cells))
			if pos == 0 {
				rows[s].Wins++
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Score != rows[j].Score {
			return rows[i].Score > rows[j].Score
		}
		if rows[i].Wins != rows[j].Wins {
			return rows[i].Wins > rows[j].Wins
		}
		return rows[i].Selector < rows[j].Selector
	})
	return &Ranking{Table: t, Rows: rows}
}

// CleanArmReached counts how many selectors attained the target in the clean
// regime — the tournament's sanity metric (CI asserts it is non-zero: a
// healthy fleet where nothing converges means the harness, not the
// selectors, broke).
func (r *Ranking) CleanArmReached() int {
	reached := 0
	for a, arm := range r.Table.Rows {
		for _, cell := range r.Table.Cells[a] {
			if arm.Labels[0] == cleanArm && cell.TimeToTarget >= 0 {
				reached++
			}
		}
	}
	return reached
}

// Render writes the ranking as a text table, best selector first: overall
// score and wins, then each regime's time-to-target (peak accuracy in
// parentheses when the target was never reached, so no cell renders as a
// bare sentinel).
func (r *Ranking) Render(w io.Writer) {
	view := Table{Sweep: r.Table.Sweep}
	view.RowHead = []string{"rank", "selector", "score", "wins"}
	view.Cols, view.Rows = r.Table.Rows, nil
	view.Fields = []Field{{" tta", func(c Cell) string {
		if c.TimeToTarget < 0 {
			return fmt.Sprintf("never (peak %.0f%%)", 100*c.PeakAccuracy)
		}
		return FormatSimDuration(c.TimeToTarget)
	}}}
	for i, row := range r.Rows {
		view.Rows = append(view.Rows, Arm{Labels: []string{
			fmt.Sprint(i + 1), displayName(row.Selector), fmt.Sprintf("%.3f", row.Score), fmt.Sprint(row.Wins)}})
		view.Cells = append(view.Cells, row.Cells)
	}
	view.Render(w)
	fmt.Fprintf(w, "clean arm reached by %d/%d selectors\n", r.CleanArmReached(), len(r.Rows))
}
