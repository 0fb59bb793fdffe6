package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"

	"flips/internal/cluster"
	"flips/internal/dataset"
	"flips/internal/partition"
	"flips/internal/rng"
)

// Series is one labeled convergence curve.
type Series struct {
	Label    string
	Rounds   []int
	Accuracy []float64 // balanced accuracy in [0,1]
}

// Panel is one subplot of a figure.
type Panel struct {
	Name   string
	Series []Series
}

// Figure is the data behind one of the paper's plots.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Panels []Panel
}

// Render writes the figure as aligned TSV blocks, one per panel: a header of
// series labels, then one line per evaluated round. This is the plottable
// artifact the paper's matplotlib figures are generated from.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s: %s (x=%s, y=%s)\n", f.ID, f.Title, f.XLabel, f.YLabel)
	for _, panel := range f.Panels {
		fmt.Fprintf(w, "# panel: %s\n", panel.Name)
		header := []string{"round"}
		for _, s := range panel.Series {
			header = append(header, s.Label)
		}
		fmt.Fprintln(w, strings.Join(header, "\t"))
		if len(panel.Series) == 0 {
			continue
		}
		for i := range panel.Series[0].Rounds {
			fields := []string{fmt.Sprintf("%d", panel.Series[0].Rounds[i])}
			for _, s := range panel.Series {
				if i < len(s.Accuracy) {
					fields = append(fields, fmt.Sprintf("%.4f", s.Accuracy[i]))
				} else {
					fields = append(fields, "")
				}
			}
			fmt.Fprintln(w, strings.Join(fields, "\t"))
		}
	}
}

// figure2 reproduces the elbow-point determination plot: cluster size k vs
// Davies-Bouldin score over the ECG parties' label distributions. It trains
// nothing, so it is the one figure that is not a view of a grid.
func figure2(s *session) (*Figure, error) {
	scale, seed := s.Scale, s.Seed
	spec := dataset.ECG()
	if scale.TrainSize > 0 {
		spec = spec.WithSizes(scale.TrainSize, max(scale.TestSize, 1))
	}
	root := rng.New(seed)
	train, _, err := dataset.Generate(spec, root.Split(1))
	if err != nil {
		return nil, err
	}
	part, err := partition.Dirichlet(train, scale.Parties, 0.3, root.Split(2))
	if err != nil {
		return nil, err
	}
	lds := partition.NormalizedLabelDistributions(train, part)
	maxK := scale.Parties / 2
	curve, err := cluster.DBICurve(lds, maxK, 20, root.Split(3))
	if err != nil {
		return nil, err
	}
	elbow := cluster.ElbowK(curve)
	series := Series{Label: "davies-bouldin"}
	for i, dbi := range curve {
		series.Rounds = append(series.Rounds, i+2)
		series.Accuracy = append(series.Accuracy, dbi)
	}
	return &Figure{
		ID:     "fig2",
		Title:  fmt.Sprintf("Elbow point determination for optimal k (elbow at k=%d)", elbow),
		XLabel: "cluster size k",
		YLabel: "Davies-Bouldin score",
		Panels: []Panel{{Name: "ecg-label-distributions", Series: []Series{series}}},
	}, nil
}

// gridView is the part of a figure drawn from one dataset's FedYogi paper
// grid (tables.go): each listed row is a panel, each listed column a series
// of every such panel. The convergence figures and the rounds-to-target and
// peak-accuracy tables are the same runs, so a figure computes nothing a
// table would not: it asks the session for the cells and reads their History.
type gridView struct {
	ds   dataset.Spec
	rows []int
	cols []int
	// name is the panel's name; empty derives it from the row's labels.
	name string
	// recall lists the labels whose mean recall is drawn; nil draws balanced
	// accuracy.
	recall []int
}

// gridFigure fills fig's panels from the views, in order.
func (s *session) gridFigure(fig Figure, views ...gridView) (*Figure, error) {
	for _, v := range views {
		grid, err := s.grid(v.ds, AlgoFedYogi, v.rows, v.cols)
		if err != nil {
			return nil, err
		}
		for _, r := range v.rows {
			panel := Panel{Name: v.name}
			if panel.Name == "" {
				panel.Name = fmt.Sprintf("alpha=%s party=%s%%", grid.Rows[r].Labels[0], grid.Rows[r].Labels[1])
			}
			for _, c := range v.cols {
				var arm Setting
				grid.Cols[c].Patch(&arm)
				series := Series{Label: displayName(arm.Strategy)}
				if arm.StragglerRate > 0 {
					series.Label += fmt.Sprintf(" %.0f%% stragglers", arm.StragglerRate*100)
				}
				for _, h := range grid.Cells[r][c].History {
					series.Rounds = append(series.Rounds, h.Round)
					if v.recall != nil {
						series.Accuracy = append(series.Accuracy, meanRecall(h.PerLabel, v.recall))
					} else {
						series.Accuracy = append(series.Accuracy, h.Accuracy)
					}
				}
				panel.Series = append(panel.Series, series)
			}
			fig.Panels = append(fig.Panels, panel)
		}
	}
	return &fig, nil
}

// convergenceFigure declares Figures 5, 7, 9, 11 (without stragglers) or 6,
// 8, 10, 12 (with stragglers), four panels each.
func convergenceFigure(id string, ds dataset.Spec, stragglers bool) func(*session) (*Figure, error) {
	mode, cols := "without stragglers", gridPlainCols
	if stragglers {
		mode, cols = "with stragglers", gridStragglerCols
	}
	return func(s *session) (*Figure, error) {
		return s.gridFigure(Figure{
			ID:     id,
			Title:  fmt.Sprintf("Convergence on %s %s, FL algorithm: FedYogi", ds.Name, mode),
			XLabel: "communication rounds",
			YLabel: "balanced accuracy",
		}, gridView{ds: ds, rows: gridPanelRows, cols: cols})
	}
}

// figure13 declares the underrepresented-label convergence curves: mean
// recall over the arrhythmia (non-N) classes of the ECG dataset, and recall
// of the bcc label of HAM10000, per strategy at α 0.3, 20% participation and
// no stragglers.
func figure13(s *session) (*Figure, error) {
	return s.gridFigure(Figure{
		ID:     "fig13",
		Title:  "Convergence on underrepresented labels, FL algorithm: FedYogi",
		XLabel: "communication rounds",
		YLabel: "per-label recall",
	},
		gridView{ds: dataset.ECG(), rows: []int{0}, cols: gridPlainCols, name: "ecg-arrhythmia(S,V,F,Q)", recall: []int{1, 2, 3, 4}},
		gridView{ds: dataset.HAM10000(), rows: []int{0}, cols: gridPlainCols, name: "ham10000-bcc", recall: []int{1}},
	)
}

func meanRecall(perLabel []float64, labels []int) float64 {
	var sum float64
	n := 0
	for _, l := range labels {
		if l < len(perLabel) && !math.IsNaN(perLabel[l]) {
			sum += perLabel[l]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
