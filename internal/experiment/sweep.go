package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"flips/internal/dataset"
	"flips/internal/device"
	"flips/internal/fl"
	"flips/internal/parallel"
)

// The paper's whole evaluation is one shape — settings × selectors →
// rounds/time-to-target — and so is every sweep this repo adds to it. A Sweep
// declares that shape once: a base Setting, row arms and column arms that
// each patch it, and how a finished cell renders. Run executes it, Table
// holds the result, Render writes it. The paper grid, the heterogeneity,
// async, chaos and privacy sweeps and the tournament are all declarations.

// Arm is one row or one column of a sweep.
type Arm struct {
	// Name is a selector column's registry name (rows leave it empty).
	Name string
	// Labels is what the arm renders as, and how progress lines, errors and
	// Sweep.Baseline refer to it: a row's leading fields (one per RowHead
	// entry), or in Labels[0] the prefix of a column's headers.
	Labels []string
	// Patch applies the arm to a copy of the base setting; nil changes nothing.
	Patch func(*Setting)
}

// Field is one rendered column of a cell, headed by the column arm's label
// followed by Suffix.
type Field struct {
	Suffix string
	Text   func(Cell) string
}

// Counter is a per-cell sum over the run's evaluated rounds.
type Counter struct {
	Name string
	Of   func(fl.RoundStats) int
}

// Sweep is a declared rows × columns experiment over one base setting.
type Sweep struct {
	// Title is the text above the column header, one entry per line.
	Title []string
	// RowHead names the leading columns the row arms' Labels fill.
	RowHead []string
	// Base is the setting every cell starts from; Rounds its round budget.
	Base   Setting
	Rounds int
	Rows   []Arm
	Cols   []Arm
	Fields []Field
	// Counters are summed into Cell.Counts, in order.
	Counters []Counter
	// Baseline, when set, is the first label of the row arm Cell.Ratio is
	// taken against: a row's reference is the row so labelled whose remaining
	// labels equal its own (the clean arm under the same fold, the plaintext
	// arm).
	Baseline string
}

// Cell is one finished (row, column) run.
type Cell struct {
	// TimeToTarget (simulated seconds) and RoundsToTarget are -1 when the
	// target was never reached.
	TimeToTarget   float64
	RoundsToTarget int
	PeakAccuracy   float64
	SimTime        float64
	// History is the run's evaluated rounds (the first repeat's): what a
	// convergence figure draws of the cell.
	History []fl.RoundStats
	Counts  []int
	// Ratio is TimeToTarget over the baseline row's same-column cell: 1 means
	// unharmed, +Inf that this cell never reached a target its baseline did,
	// NaN that there is no baseline or it never got there itself.
	Ratio float64
}

// Table is a finished sweep: its declaration and Cells[row][column].
type Table struct {
	Sweep
	Cells [][]Cell
}

// Run executes every cell; see runCells for the fan-out and its bit-identity
// contract.
func (s Sweep) Run(scale Scale, progress func(string)) (*Table, error) {
	cells, err := s.runCells(scale, upTo(len(s.Rows)*len(s.Cols)), progress)
	if err != nil {
		return nil, err
	}
	t := s.table()
	for i, cell := range cells {
		t.Cells[i/len(s.Cols)][i%len(s.Cols)] = cell
	}
	for r := range t.Cells {
		if base := s.baselineRow(r); base >= 0 {
			for c := range t.Cells[r] {
				t.Cells[r][c].Ratio = ratio(t.Cells[r][c], t.Cells[base][c])
			}
		}
	}
	return t, nil
}

// upTo returns the indices 0 … n-1.
func upTo(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// table returns the sweep's Table with every cell still to be filled in.
func (s Sweep) table() *Table {
	t := &Table{Sweep: s, Cells: make([][]Cell, len(s.Rows))}
	for r := range t.Cells {
		t.Cells[r] = make([]Cell, len(s.Cols))
	}
	return t
}

// runCells executes the listed cells (row-major indices, row*len(Cols)+col)
// and returns them in the order listed. It is the one place a declared
// Setting becomes a run. Cells fan out over a pool bounded by
// scale.Parallelism and each cell's interior (repeats, local training, eval
// shards) runs sequentially: cells are the coarsest — and therefore cheapest
// — level to spend the whole concurrency budget on, and claiming it here
// keeps nested pools from multiplying past it. Results are placed by index,
// so a cell is bit-identical at every pool width and whichever cells run
// beside it; only the arrival order of progress lines (one per finished cell;
// progress may be nil) varies.
func (s Sweep) runCells(scale Scale, idx []int, progress func(string)) ([]Cell, error) {
	cellScale := scale
	cellScale.Rounds = s.Rounds
	cellScale.Parallelism = 1
	var reporting sync.Mutex // progress sinks need not be goroutine-safe
	nc := len(s.Cols)
	type out struct {
		cell Cell
		err  error
	}
	outs := parallel.Map(parallel.New(scale.Parallelism), len(idx), func(i int) out {
		row, col := s.Rows[idx[i]/nc], s.Cols[idx[i]%nc]
		setting := s.Base
		for _, arm := range []Arm{row, col} {
			if arm.Patch != nil {
				arm.Patch(&setting)
			}
		}
		what := strings.Join(row.Labels, " ") + " " + col.Labels[0]
		res, _, err := RunSettingClusters(setting, cellScale, nil, nil)
		if err != nil {
			return out{err: fmt.Errorf("run %s: %w", what, err)}
		}
		cell := Cell{
			TimeToTarget:   res.TimeToTarget,
			RoundsToTarget: res.RoundsToTarget,
			PeakAccuracy:   res.PeakAccuracy,
			SimTime:        res.SimTime,
			History:        res.History,
			Counts:         make([]int, len(s.Counters)),
			Ratio:          math.NaN(),
		}
		msg := fmt.Sprintf("%s -> tta=%s rtt=%s peak=%.2f%%", what,
			FormatSimDuration(cell.TimeToTarget), formatRounds(cell.RoundsToTarget, s.Rounds), 100*cell.PeakAccuracy)
		for k, c := range s.Counters {
			for _, h := range res.History {
				cell.Counts[k] += c.Of(h)
			}
			msg += fmt.Sprintf(" %s=%d", c.Name, cell.Counts[k])
		}
		if progress != nil {
			reporting.Lock()
			progress(msg)
			reporting.Unlock()
		}
		return out{cell: cell}
	})
	cells := make([]Cell, len(idx))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err // the first in index order
		}
		cells[i] = o.cell
	}
	return cells, nil
}

// baselineRow returns the index of row r's reference row, or -1.
func (s Sweep) baselineRow(r int) int {
	for b, arm := range s.Rows {
		if s.Baseline != "" && arm.Labels[0] == s.Baseline &&
			strings.Join(arm.Labels[1:], "\t") == strings.Join(s.Rows[r].Labels[1:], "\t") {
			return b
		}
	}
	return -1
}

func ratio(cell, base Cell) float64 {
	switch {
	case base.TimeToTarget <= 0:
		return math.NaN()
	case cell.TimeToTarget < 0:
		return math.Inf(1)
	}
	return cell.TimeToTarget / base.TimeToTarget
}

// Render writes the sweep as a tab-separated text table: the title lines, a
// header, then one line per row arm with every column's fields.
func (t *Table) Render(w io.Writer) {
	for _, line := range t.Title {
		fmt.Fprintln(w, line)
	}
	header := append([]string(nil), t.RowHead...)
	for _, col := range t.Cols {
		for _, f := range t.Fields {
			header = append(header, col.Labels[0]+f.Suffix)
		}
	}
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for r, row := range t.Rows {
		fields := append([]string(nil), row.Labels...)
		for _, cell := range t.Cells[r] {
			for _, f := range t.Fields {
				fields = append(fields, f.Text(cell))
			}
		}
		fmt.Fprintln(w, strings.Join(fields, "\t"))
	}
}

// strategyArms turns selector registry names into column arms.
func strategyArms(names ...string) []Arm {
	arms := make([]Arm, len(names))
	for i, name := range names {
		arms[i] = Arm{Name: name, Labels: []string{displayName(name)}, Patch: func(s *Setting) { s.Strategy = name }}
	}
	return arms
}

// ecgBase is the setting the beyond-the-paper sweeps share: the ECG workload
// under FedYogi. FedYogi gives clean arms a baseline that attains the target;
// example-weighted plain FedAvg plateaus below it on this non-IID workload.
func ecgBase(alpha, fraction float64, seed uint64) Setting {
	ds := dataset.ECG()
	return Setting{Spec: ds, Algorithm: AlgoFedYogi, Alpha: alpha, PartyFraction: fraction,
		TargetAccuracy: TargetFor(ds), Seed: seed}
}

// lognormalFleet is device.Lognormal() under the given availability process.
func lognormalFleet(a device.Availability) *device.Config {
	c := device.Lognormal()
	c.Availability = a
	return &c
}

var churn80 = device.Availability{Kind: device.Churn, OnlineProb: 0.8}

// The cell fields the sweeps render.
var fieldTTA = Field{" tta", func(c Cell) string { return FormatSimDuration(c.TimeToTarget) }}

func fieldRTT(suffix string, budget int) Field {
	return Field{suffix, func(c Cell) string { return formatRounds(c.RoundsToTarget, budget) }}
}

// fieldRatio renders Cell.Ratio: "—" for no reference, "never" when the arm
// made the target unreachable, else "×1.37".
func fieldRatio(suffix string) Field {
	return Field{suffix, func(c Cell) string {
		switch {
		case math.IsNaN(c.Ratio):
			return "—"
		case math.IsInf(c.Ratio, 0):
			return "never"
		}
		return fmt.Sprintf("×%.2f", c.Ratio)
	}}
}

func formatRounds(rtt, budget int) string {
	if rtt < 0 {
		return fmt.Sprintf(">%d", budget)
	}
	return fmt.Sprintf("%d", rtt)
}

// FormatSimDuration renders simulated seconds compactly ("42s", "3.5m",
// "1.2h"); negative means the target was never reached.
func FormatSimDuration(seconds float64) string {
	switch {
	case seconds < 0:
		return "never"
	case seconds < 120:
		return fmt.Sprintf("%.0fs", seconds)
	case seconds < 7200:
		return fmt.Sprintf("%.1fm", seconds/60)
	default:
		return fmt.Sprintf("%.1fh", seconds/3600)
	}
}

func displayName(strategy string) string {
	switch strategy {
	case StrategyRandom:
		return "Random"
	case StrategyFLIPS:
		return "FLIPS"
	case StrategyOort:
		return "OORT"
	case StrategyGradClus:
		return "GradCls"
	case StrategyTiFL:
		return "TiFL"
	default:
		return strategy
	}
}
