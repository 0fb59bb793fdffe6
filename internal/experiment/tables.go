package experiment

import (
	"fmt"
	"io"

	"flips/internal/dataset"
)

// Metric selects which of the paper's two table metrics to report.
type Metric int

const (
	// MetricRounds is "Rounds required to attain Target Accuracy"
	// (odd-numbered tables).
	MetricRounds Metric = iota + 1
	// MetricPeak is "highest accuracy attained within the rounds threshold"
	// (even-numbered tables).
	MetricPeak
)

// TableSpec identifies one of the paper's Tables 1–24.
type TableSpec struct {
	ID        int
	Dataset   dataset.Spec
	Algorithm string
	Metric    Metric
}

// Title renders the paper's table caption.
func (t TableSpec) Title() string {
	if t.Metric == MetricRounds {
		return fmt.Sprintf("Table %d: %s — rounds required to attain target accuracy, FL algorithm: %s",
			t.ID, t.Dataset.Name, t.Algorithm)
	}
	return fmt.Sprintf("Table %d: %s — highest accuracy attained within the rounds threshold, FL algorithm: %s",
		t.ID, t.Dataset.Name, t.Algorithm)
}

// TableSpecs enumerates all 24 tables in paper order: Tables 1–8 FedYogi,
// 9–16 FedProx, 17–24 FedAvg; within each algorithm the datasets appear as
// ECG, HAM10000, FEMNIST, FashionMNIST with a rounds-table then a
// peak-accuracy table.
func TableSpecs() []TableSpec {
	algos := []string{AlgoFedYogi, AlgoFedProx, AlgoFedAvg}
	specs := make([]TableSpec, 0, 24)
	id := 1
	for _, algo := range algos {
		for _, ds := range dataset.AllSpecs() {
			specs = append(specs,
				TableSpec{ID: id, Dataset: ds, Algorithm: algo, Metric: MetricRounds},
				TableSpec{ID: id + 1, Dataset: ds, Algorithm: algo, Metric: MetricPeak},
			)
			id += 2
		}
	}
	return specs
}

// paperGrid declares the evaluation grid behind one (dataset, algorithm) pair
// — i.e. behind one rounds-table and one peak-table: (α ∈ {0.3, 0.6}) ×
// (party% ∈ {20, 15}) rows, and the paper's column layout — all five
// strategies at 0% stragglers, the three best (FLIPS, Oort, TiFL) at 10% and
// 20%. Which of its two tables a run renders as is RenderTable's choice.
func paperGrid(ds dataset.Spec, algorithm string, scale Scale, seed uint64) Sweep {
	s := Sweep{
		RowHead: []string{"alpha", "party%"},
		Base:    Setting{Spec: ds, Algorithm: algorithm, TargetAccuracy: TargetFor(ds), Seed: seed},
		Rounds:  RoundsFor(ds, scale),
	}
	for _, alpha := range []float64{0.3, 0.6} {
		for _, frac := range []float64{0.20, 0.15} {
			s.Rows = append(s.Rows, Arm{
				Labels: []string{fmt.Sprintf("%.1f", alpha), fmt.Sprintf("%.0f", frac*100)},
				Patch:  func(st *Setting) { st.Alpha, st.PartyFraction = alpha, frac },
			})
		}
	}
	for _, col := range []struct {
		rate       float64
		strategies []string
	}{
		{0, AllStrategies()},
		{0.10, []string{StrategyFLIPS, StrategyOort, StrategyTiFL}},
		{0.20, []string{StrategyFLIPS, StrategyOort, StrategyTiFL}},
	} {
		for _, strategy := range col.strategies {
			s.Cols = append(s.Cols, Arm{
				Name:   strategy,
				Labels: []string{fmt.Sprintf("%s@%.0f%%", displayName(strategy), col.rate*100)},
				Patch:  func(st *Setting) { st.Strategy, st.StragglerRate = strategy, col.rate },
			})
		}
	}
	return s
}

// The views in figures.go name the grid's cells by index; the layout
// paperGrid declares fixes what the indices mean.
var (
	// gridPanelRows orders the rows as the figures' panels: α 0.3 then 0.6,
	// 15% before 20% participation within each.
	gridPanelRows = []int{1, 0, 3, 2}
	// gridPlainCols are the five strategies at 0% stragglers.
	gridPlainCols = []int{0, 1, 2, 3, 4}
	// gridStragglerCols are FLIPS, Oort and TiFL at 10% then 20% each.
	gridStragglerCols = []int{5, 8, 6, 9, 7, 10}
)

// RenderTable writes a finished grid as one of its two paper tables.
func RenderTable(w io.Writer, grid *Table, spec TableSpec) {
	view := *grid
	view.Title = []string{spec.Title()}
	view.Fields = []Field{{"", func(c Cell) string { return fmt.Sprintf("%.2f", 100*c.PeakAccuracy) }}}
	if spec.Metric == MetricRounds {
		view.Title = append(view.Title, fmt.Sprintf("Target balanced accuracy: %.0f%%, rounds threshold: %d",
			100*grid.Base.TargetAccuracy, grid.Rounds))
		view.Fields = []Field{fieldRTT("", grid.Rounds)}
	}
	view.Render(w)
}
