package experiment

import (
	"fmt"
	"io"
	"strings"

	"flips/internal/chaos"
	"flips/internal/dataset"
	"flips/internal/device"
	"flips/internal/selection"
)

// Every evaluation artifact — the paper's tables and figures, the sweeps
// beyond them, the simulator's own scale/dist/tee measurements — is one named
// entry of the registry below, modelled on selection.Registry. flipsbench and
// the public flips.RunExperiment are lookups into it; adding an experiment is
// adding an entry.

// Options is everything an experiment run can be given.
type Options struct {
	Scale Scale
	Seed  uint64
	// Trace replays a real-world availability trace (async).
	Trace *device.TraceSet
	// Matrix is the declarative fault matrix (chaos; nil = the built-in one).
	Matrix *chaos.Matrix
	// Selectors names selectors by registry name: the tournament's
	// competitors (empty = all), or the scale sweep's single strategy.
	Selectors []string
	// Parties lists the population sizes of the scale and dist sweeps.
	Parties []int
	// Workers lists the dist sweep's shard-worker process counts.
	Workers []int
	// Spawn launches the dist sweep's workers (nil = goroutines in-process).
	Spawn WorkerSpawner
	// Log receives one banner line per experiment, Progress one line per
	// finished cell; either may be nil.
	Log, Progress func(string)
}

// Input is a bit set of the optional inputs among Options' fields.
type Input uint8

const (
	InTrace Input = 1 << iota
	InMatrix
	InSelectors
	InParties
	InWorkers
)

// inputs describes each optional input: its bit, what an error calls it, and
// whether an Options carries it.
var inputs = []struct {
	bit   Input
	name  string
	given func(Options) bool
}{
	{InTrace, "availability trace", func(o Options) bool { return o.Trace != nil }},
	{InMatrix, "fault matrix", func(o Options) bool { return o.Matrix != nil }},
	{InSelectors, "selector list", func(o Options) bool { return len(o.Selectors) > 0 }},
	{InParties, "party list", func(o Options) bool { return len(o.Parties) > 0 }},
	{InWorkers, "worker list", func(o Options) bool { return len(o.Workers) > 0 }},
}

// Experiment is one registry entry. Its position in the registry is its
// position in every run.
type Experiment struct {
	Name string
	// Group is the alias that also selects this entry ("all-tables",
	// "all-figures"); every entry answers to "all".
	Group string
	// Banner, when set, is logged as "running <Banner>..." before the run.
	Banner string
	// Consumes is the set of optional inputs the entry reads. A run given an
	// input none of its entries consumes is rejected, not silently narrowed.
	Consumes Input
	// check, when set, vets the options before anything runs.
	check func(Options) error
	run   func(w io.Writer, s *session) error
}

// session is one Run: its options plus every paper-grid cell already
// computed, so the tables and figures that draw on the same (dataset,
// algorithm, row, column) run it once between them.
type session struct {
	Options
	cells map[cellKey]Cell
}

// cellKey names one cell of one paper grid: "dataset/algorithm" and the
// cell's row-major index.
type cellKey struct {
	grid  string
	index int
}

// grid returns the paper grid of (ds, algorithm) with the cells at rows ×
// cols filled in (nil = every row, every column), running whichever of them
// no earlier entry of this session has.
func (s *session) grid(ds dataset.Spec, algorithm string, rows, cols []int) (*Table, error) {
	sweep := paperGrid(ds, algorithm, s.Scale, s.Seed)
	if rows == nil {
		rows = upTo(len(sweep.Rows))
	}
	if cols == nil {
		cols = upTo(len(sweep.Cols))
	}
	name, nc := ds.Name+"/"+algorithm, len(sweep.Cols)
	var missing []int
	for _, r := range rows {
		for _, c := range cols {
			if _, ok := s.cells[cellKey{name, r*nc + c}]; !ok {
				missing = append(missing, r*nc+c)
			}
		}
	}
	if len(missing) > 0 {
		s.log("running grid %s (%d cells)...", name, len(missing))
		cells, err := sweep.runCells(s.Scale, missing, s.Progress)
		if err != nil {
			return nil, err
		}
		for k, i := range missing {
			s.cells[cellKey{name, i}] = cells[k]
		}
	}
	t := sweep.table()
	for _, r := range rows {
		for _, c := range cols {
			t.Cells[r][c] = s.cells[cellKey{name, r*nc + c}]
		}
	}
	return t, nil
}

func (s *session) log(format string, args ...any) {
	if s.Log != nil {
		s.Log(fmt.Sprintf(format, args...))
	}
}

// sweepEntry registers a declared sweep: build it, run it, render it — as the
// table itself, or through a post-pass (the tournament's ranking).
func sweepEntry(name, banner string, consumes Input, declare func(Options) (Sweep, error), render func(*Table, io.Writer)) Experiment {
	return Experiment{Name: name, Banner: banner, Consumes: consumes, run: func(w io.Writer, s *session) error {
		sweep, err := declare(s.Options)
		if err != nil {
			return err
		}
		table, err := sweep.Run(s.Scale, s.Progress)
		if err != nil {
			return err
		}
		render(table, w)
		return nil
	}}
}

// tableEntry registers one of the paper's tables.
func tableEntry(spec TableSpec) Experiment {
	return Experiment{Name: fmt.Sprintf("table%d", spec.ID), Group: "all-tables", run: func(w io.Writer, s *session) error {
		grid, err := s.grid(spec.Dataset, spec.Algorithm, nil, nil)
		if err != nil {
			return err
		}
		RenderTable(w, grid, spec)
		return nil
	}}
}

// figureEntry registers one of the paper's figures.
func figureEntry(id string, build func(*session) (*Figure, error)) Experiment {
	return Experiment{Name: id, Group: "all-figures", Banner: id, run: func(w io.Writer, s *session) error {
		fig, err := build(s)
		if err != nil {
			return err
		}
		fig.Render(w)
		return nil
	}}
}

var registry = buildRegistry()

func buildRegistry() []Experiment {
	var reg []Experiment
	for _, spec := range TableSpecs() {
		reg = append(reg, tableEntry(spec))
	}
	reg = append(reg, figureEntry("fig2", figure2))
	for i, ds := range dataset.AllSpecs() { // fig5/6 ECG … fig11/12 Fashion-MNIST
		plain, straggling := fmt.Sprintf("fig%d", 5+2*i), fmt.Sprintf("fig%d", 6+2*i)
		reg = append(reg,
			figureEntry(plain, convergenceFigure(plain, ds, false)),
			figureEntry(straggling, convergenceFigure(straggling, ds, true)))
	}
	reg = append(reg, figureEntry("fig13", figure13))
	return append(reg,
		sweepEntry("het", "device-heterogeneity sweep", 0, hetSweep, (*Table).Render),
		sweepEntry("async", "aggregation-mode sweep", InTrace, asyncSweep, (*Table).Render),
		sweepEntry("chaos", "chaos fault-matrix sweep", InMatrix, chaosSweep, (*Table).Render),
		sweepEntry("privacy", "privacy-ladder sweep", 0, privacySweep, (*Table).Render),
		sweepEntry("tournament", "selector tournament", InSelectors, tournamentSweep,
			func(t *Table, w io.Writer) { rank(t).Render(w) }),
		fleetEntry(Experiment{Name: "scale", Banner: "fleet-scale sweep (parties x shards)", Consumes: InSelectors | InParties},
			[]int{1_000, 10_000, 100_000}, []int{1, 64}, renderScale),
		fleetEntry(Experiment{Name: "dist", Banner: "distributed-aggregation sweep (parties x worker processes)", Consumes: InParties | InWorkers},
			[]int{10_000, 100_000}, []int{64}, renderDist),
		teeEntry,
	)
}

// Usage lists what an experiment spec accepts, generated from the registry:
// each group as first..last, the ungrouped entries, then the aliases.
func Usage() string {
	var parts []string
	for i := 0; i < len(registry); i++ {
		first := registry[i]
		for first.Group != "" && i+1 < len(registry) && registry[i+1].Group == first.Group {
			i++
		}
		if last := registry[i]; last.Name != first.Name {
			parts = append(parts, first.Name+".."+last.Name)
		} else {
			parts = append(parts, first.Name)
		}
	}
	return strings.Join(append(parts, "all-tables", "all-figures", "all"), ", ")
}

// Expand resolves a comma-separated experiment spec — names, group aliases,
// "all" — to registry entries, de-duplicated and in registry order.
func Expand(spec string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, raw := range strings.Split(spec, ",") {
		id := strings.TrimSpace(raw)
		known := id == ""
		for _, e := range registry {
			if id == e.Name || id == "all" || (id != "" && id == e.Group) {
				want[e.Name], known = true, true
			}
		}
		if !known {
			return nil, fmt.Errorf("experiment: unknown experiment %q (valid: %s)", id, Usage())
		}
	}
	var selected []Experiment
	for _, e := range registry {
		if want[e.Name] {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("experiment: no experiments selected")
	}
	return selected, nil
}

// Run executes the experiments spec selects, in registry order, writing each
// one's rendered artifact and a blank line to w. Everything checkable is
// checked before any compute is spent: selector names against the selection
// registry, duplicates, every optional input against the selected entries'
// Consumes, and each entry's own check.
func Run(w io.Writer, spec string, o Options) error {
	selected, err := Expand(spec)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, name := range o.Selectors {
		if err := selection.Check(name); err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
		if seen[name] {
			return fmt.Errorf("experiment: selector %q listed twice", name)
		}
		seen[name] = true
	}
	var consumed Input
	for _, e := range selected {
		consumed |= e.Consumes
	}
	for _, in := range inputs {
		if in.given(o) && consumed&in.bit == 0 {
			var takers []string
			for _, e := range registry {
				if e.Consumes&in.bit != 0 {
					takers = append(takers, e.Name)
				}
			}
			return fmt.Errorf("experiment: %s given, but only %s would use it — select one of them", in.name, strings.Join(takers, ", "))
		}
	}
	for _, e := range selected {
		if e.check != nil {
			if err := e.check(o); err != nil {
				return err
			}
		}
	}
	s := &session{Options: o, cells: map[cellKey]Cell{}}
	for _, e := range selected {
		if e.Banner != "" {
			s.log("running %s...", e.Banner)
		}
		if err := e.run(w, s); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
