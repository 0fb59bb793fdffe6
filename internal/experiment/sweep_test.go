package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runSweep declares a sweep, lets trim cut it down, and runs it.
func runSweep(t *testing.T, declare func(Options) (Sweep, error), o Options, trim func(*Sweep)) *Table {
	t.Helper()
	sweep, err := declare(o)
	if err != nil {
		t.Fatal(err)
	}
	if trim != nil {
		trim(&sweep)
	}
	table, err := sweep.Run(o.Scale, o.Progress)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func rendered(t *Table) string {
	var buf bytes.Buffer
	t.Render(&buf)
	return buf.String()
}

// TestSweepsMatchParentGoldens is the refactors' oracle at unit-test cost:
// testdata/*.golden is what the code this engine replaced rendered — the six
// hand-rolled harnesses, and for figures.golden the figures' own cell runner
// (each captured from the parent commit of its refactor, seed 7, tinyScale
// with an 80-round budget so that cells reach their targets and the ratio,
// rank and rounds columns carry values rather than "never"); the
// declarations and grid views must reproduce every byte.
func TestSweepsMatchParentGoldens(t *testing.T) {
	t.Parallel()
	scale := tinyScale()
	scale.Rounds, scale.EvalEvery = 80, 2
	for name, spec := range map[string]string{
		"het": "het", "async": "async", "chaos": "chaos", "privacy": "privacy",
		"tournament": "tournament", "grid": "table23,table24", "figures": "fig5,fig6,fig11,fig13",
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && name != "het" && name != "async" {
				t.Skip("seconds under the race detector; the full run covers it")
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := Run(&got, spec, Options{Scale: scale, Seed: 7}); err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Fatalf("%s diverged from the parent's render.\ngot:\n%s\nwant:\n%s", spec, got.String(), want)
			}
		})
	}
}

// TestExperimentsAreParallelismInvariant runs every registered experiment at
// pool width 1 and 4: by-index assembly means the two renders are identical.
// A group runs as one spec, so the tables that share a grid share its run.
// Each spec is given exactly the optional inputs it consumes, cut down to
// unit-test size.
func TestExperimentsAreParallelismInvariant(t *testing.T) {
	t.Parallel()
	consumes := map[string]Input{}
	var specs []string
	for _, e := range registry {
		spec := e.Name
		if e.Group != "" {
			spec = e.Group
		}
		if _, seen := consumes[spec]; !seen {
			specs = append(specs, spec)
		}
		consumes[spec] |= e.Consumes
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			o := Options{Seed: 7}
			if consumes[spec]&InParties != 0 {
				o.Parties = []int{300}
			}
			if consumes[spec]&InWorkers != 0 {
				o.Workers = []int{2}
			}
			// Under -short one grid and one figure stand for their groups.
			if one, ok := map[string]string{"all-tables": "table1,table2", "all-figures": "fig6"}[spec]; ok && testing.Short() {
				spec = one
			}
			render := func(parallelism int) string {
				o.Scale = Scale{Parties: 10, Rounds: 4, TrainSize: 500, TestSize: 120, Repeats: 2, EvalEvery: 2, Parallelism: parallelism}
				var buf bytes.Buffer
				if err := Run(&buf, spec, o); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			if seq, par := render(1), render(4); seq != par {
				t.Fatalf("%s renders differently at widths 1 and 4:\n%s\nvs\n%s", spec, seq, par)
			}
		})
	}
}

// TestPaperCellsRunOnce counts finished-cell progress callbacks: a run
// executes the union of the distinct paper cells its entries draw on — a
// figure beside its dataset's FedYogi tables costs nothing more — and a
// figure on its own only the cells it draws. What a figure renders does not
// depend on who computed its cells.
func TestPaperCellsRunOnce(t *testing.T) {
	t.Parallel()
	run := func(spec string) (string, int) {
		cells := 0
		var buf bytes.Buffer
		err := Run(&buf, spec, Options{
			Scale: Scale{Parties: 10, Rounds: 4, TrainSize: 500, TestSize: 120, Repeats: 1, EvalEvery: 2},
			Seed:  7, Progress: func(string) { cells++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), cells
	}
	joint, n := run("table1,table2,fig5,fig6,fig13")
	if n != 49 { // the ECG grid's 44 + fig13's HAM10000 row of 5
		t.Fatalf("tables 1-2 with figures 5, 6 and 13 ran %d cells, want 49", n)
	}
	for spec, want := range map[string]int{"fig13": 10, "fig5": 20} {
		alone, n := run(spec)
		if n != want {
			t.Fatalf("%s alone ran %d cells, want %d", spec, n, want)
		}
		if !strings.Contains(joint, alone) {
			t.Fatalf("%s renders differently beside the tables than alone:\n%s", spec, alone)
		}
	}
	if testing.Short() {
		return
	}
	if _, n := run("all-tables,all-figures"); n != 528 { // 12 grids of 44
		t.Fatalf("every table and figure ran %d cells, want 528", n)
	}
}

// TestRunChecksInputsUpFront pins the generic flag hygiene: an optional input
// none of the selected experiments consumes is an error that names who would
// have, and scale refuses a selector list it cannot use — both before any
// experiment runs.
func TestRunChecksInputsUpFront(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		spec string
		o    Options
		want string
	}{
		{"het", Options{Selectors: []string{StrategyOort}}, "tournament, scale"},
		{"het", Options{Parties: []int{100}}, "scale, dist"},
		{"chaos", Options{Workers: []int{2}}, "dist"},
		{"tee", Options{Matrix: smokeMatrix()}, "chaos"},
		{"fig2,scale", Options{Selectors: []string{StrategyOort, StrategyTiFL}}, "one selector"},
	} {
		tc.o.Scale = tinyScale()
		var buf bytes.Buffer
		err := Run(&buf, tc.spec, tc.o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Run(%q): err = %v, want one naming %q", tc.spec, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Fatalf("Run(%q) wrote %q before rejecting its inputs", tc.spec, buf.String())
		}
	}
}

// TestUsageAndExpand pins the generated -exp help and the alias expansion.
func TestUsageAndExpand(t *testing.T) {
	t.Parallel()
	want := "table1..table24, fig2..fig13, het, async, chaos, privacy, tournament, scale, dist, tee, all-tables, all-figures, all"
	if got := Usage(); got != want {
		t.Fatalf("Usage() = %q, want %q", got, want)
	}
	all, err := Expand("all")
	if err != nil || len(all) != len(registry) {
		t.Fatalf("Expand(all) = %v, %v", all, err)
	}
	if figs, err := Expand("all-figures"); err != nil || len(figs) != 10 {
		t.Fatalf("Expand(all-figures) = %v, %v", figs, err)
	}
	if _, err := Expand("table99"); err == nil || !strings.Contains(err.Error(), "table1..table24") {
		t.Fatalf("unknown name: err = %v, want one listing what is valid", err)
	}
}
