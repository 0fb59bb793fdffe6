package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"
)

// smoke runs all five workloads once at smoke scale, traced, in-process, and
// shares the reports between the tests below.
var smoke struct {
	once    sync.Once
	reports map[string]*workloadReport
	err     error
}

func smokeReports(t *testing.T) map[string]*workloadReport {
	t.Helper()
	smoke.once.Do(func() {
		dir, err := os.MkdirTemp("", "flips-benchmark-smoke")
		if err != nil {
			smoke.err = err
			return
		}
		defer os.RemoveAll(dir)
		smoke.reports = make(map[string]*workloadReport)
		o := options{seed: defaultSeed, seconds: 0.05, trace: true, scale: scales["smoke"], outDir: dir}
		for _, name := range workloadNames {
			rep, err := runWorkload(o, name, time.Now(), io.Discard)
			if err != nil {
				smoke.err = err
				return
			}
			smoke.reports[name] = rep
		}
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.reports
}

// TestSmokeWorkloads drives every workload end to end — boot, POST /jobs,
// stream to the terminal event, output checks, traced re-run, probes — and
// holds the suite-level invariant that dist_fleet equals fleet_async.
func TestSmokeWorkloads(t *testing.T) {
	reports := smokeReports(t)
	for _, name := range workloadNames {
		rep := reports[name]
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d jobs or checks failed: %v", name, rep.Failed, rep.Attempted, rep.Failures)
		}
	}
	var all []workloadReport
	for _, name := range workloadNames {
		all = append(all, *reports[name])
	}
	if bad := crossCheck(all); bad != nil {
		t.Error(bad)
	}
	if reports["dist_fleet"].Metrics["dist.wire_bytes_out"].Value == 0 {
		t.Error("dist_fleet moved no bytes over the wire: the job did not run distributed")
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSchema pins the registry, the emitted metrics and BENCHMARK.json to one
// another: every name well-formed and used once, every name in BENCHMARK.json
// emitted with its unit and vice versa, setup_s on every workload.
func TestSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("command %v / paths %v: want go run ./benchmark in benchmark", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d != the program's default budget %d", spec.RunSeconds, defaultSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: malformed name or why over 200 characters", w.Name)
		}
	}

	type entry struct {
		unit, better string
		bound        float64
	}
	declared := make(map[string]entry)
	for _, m := range spec.EndToEnd {
		declared[m.Name] = entry{m.Unit, m.Better, m.Bound}
	}
	for _, m := range spec.PerLayer {
		if _, dup := declared[m.Name]; dup {
			t.Errorf("%s is declared twice in BENCHMARK.json", m.Name)
		}
		declared[m.Name] = entry{m.Unit, m.Better, -1}
	}
	seen := make(map[string]bool)
	for _, d := range registry {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("registry entry %+v is malformed", d)
		}
		if seen[d.name] {
			t.Errorf("%s is registered twice", d.name)
		}
		seen[d.name] = true
		want := entry{d.unit, d.better, -1}
		if d.kind == kindEndToEnd {
			want.bound = d.bound
			if d.bound <= 0 || d.bound > 0.25 {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
			}
		}
		if got, ok := declared[d.name]; !ok || got != want {
			t.Errorf("%s: BENCHMARK.json has %+v (present: %v), the registry %+v", d.name, got, ok, want)
		}
	}
	if len(declared) != len(registry) {
		t.Errorf("BENCHMARK.json declares %d metrics, the registry %d", len(declared), len(registry))
	}

	for name, rep := range smokeReports(t) {
		for _, d := range registry {
			if s, ok := rep.Metrics[d.name]; !ok || s.Unit != d.unit {
				t.Errorf("%s: %s not emitted with unit %q (got %+v)", name, d.name, d.unit, s)
			}
		}
		if len(rep.Metrics) != len(registry) {
			t.Errorf("%s emits %d metrics, the registry has %d", name, len(rep.Metrics), len(registry))
		}
		if rep.Metrics["setup_s"].Value <= 0 {
			t.Errorf("%s: setup_s missing or zero", name)
		}
	}
}

// TestSeedDrivesGenerators pins that -seed is the only input of the
// generators: the same seed yields the same job lists, a different seed a
// different server_mixed list, and seeds 7 and 11 both yield configs the
// server's own validator accepts, for all five workloads.
func TestSeedDrivesGenerators(t *testing.T) {
	sc := scales["full"]
	if testing.Short() {
		sc = scales["smoke"] // validating a config builds its whole fleet
	}
	lists := make(map[uint64][]workload)
	for _, seed := range []uint64{7, 11} {
		for _, name := range workloadNames {
			a, err := buildWorkload(name, seed, sc, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildWorkload(name, seed, sc, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: two generations differ", name, seed)
			}
			lists[seed] = append(lists[seed], a)
			if name == "dist_fleet" {
				continue // the identical config fleet_async just validated
			}
			for i, cfg := range a.jobs {
				if err := cfg.Validate(); err != nil {
					t.Errorf("%s seed %d job %d: %v", name, seed, i, err)
				}
				if cfg.Seed < seed {
					t.Errorf("%s seed %d job %d: per-job seed %d not derived from -seed", name, seed, i, cfg.Seed)
				}
			}
		}
	}
	for i, name := range workloadNames {
		if reflect.DeepEqual(lists[7][i].jobs, lists[11][i].jobs) {
			t.Errorf("%s: seeds 7 and 11 generate the same jobs", name)
		}
	}
}

// TestCalibrator pins what the timed metrics are divided by: a positive,
// finite host factor from at least the one sample taken at start, and a
// sample per period after that.
func TestCalibrator(t *testing.T) {
	c := startCalibrator(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	factor, n := c.factor()
	if !(factor > 0) || math.IsInf(factor, 0) || n < 2 {
		t.Errorf("factor %v from %d samples", factor, n)
	}
	if factor, n = startCalibrator(time.Hour).factor(); !(factor > 0) || n != 1 {
		t.Errorf("stopped at once: factor %v from %d samples, want the one taken at start", factor, n)
	}
}

// TestFlags pins the command line the CI driver uses.
func TestFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "fleet_async", "--seed", "11", "--seconds", "20", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.workloads) != 1 || o.workloads[0] != "fleet_async" || o.seed != 11 || o.seconds != 20 || !o.trace {
		t.Errorf("driver flags parsed as %+v", o)
	}
	for _, bad := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"-scale", "huge"}, {"stray"}} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("flags %v accepted", bad)
		}
	}
}
