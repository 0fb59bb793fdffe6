package experiment

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"flips/internal/dataset"
	"flips/internal/fl"
)

// planCost resolves cfg and returns its plan's cost terms.
func planCost(t *testing.T, cfg SimulationConfig) (work, bytes float64) {
	t.Helper()
	setting, scale, err := cfg.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := newPlan(setting, scale)
	if err != nil {
		t.Fatal(err)
	}
	return pl.cost(setting.Strategy, scale)
}

// cpuTime is the CPU time this process has used, user and system: unlike
// wall time, it does not grow while other processes hold the cores.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestCostTermsTrackMeasuredCosts runs jobs at three sizes and checks each
// cost term against what the job measurably costs: the work term against
// the run's CPU time on one core (its time per unit of work may not drift more
// than 4x between the sizes; it reads ~0.8-1.2 ns for the femnist MLP and
// ~1.3-1.8 ns for the ECG logistic regression), the byte term against the live heap mid-run
// (between 0.8x and 1.5x of it).
func TestCostTermsTrackMeasuredCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("times whole jobs")
	}
	var perWork []float64
	for _, cfg := range []SimulationConfig{
		{Dataset: "mit-bih-ecg", Strategy: "random", Rounds: 400, Parallelism: 1, Seed: 1},
		{Dataset: "mit-bih-ecg", Strategy: "random", Rounds: 1600, Parallelism: 1, Seed: 1},
		{Dataset: "femnist", Strategy: "random", Rounds: 200, Parallelism: 1, Seed: 1},
	} {
		work, _ := planCost(t, cfg)
		setting, scale, _ := cfg.Resolve()
		elapsed := time.Duration(1 << 62)
		for range 3 {
			start := cpuTime()
			if _, _, err := RunSettingClusters(context.Background(), setting, scale, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			elapsed = min(elapsed, cpuTime()-start)
		}
		perWork = append(perWork, float64(elapsed.Nanoseconds())/work)
		t.Logf("%s, %d rounds: work %.3g, %v (%.3f ns per unit)", cfg.Dataset, cfg.Rounds, work, elapsed, perWork[len(perWork)-1])
	}
	if lo, hi := min(perWork[0], perWork[1], perWork[2]), max(perWork[0], perWork[1], perWork[2]); hi > 4*lo {
		t.Errorf("time per unit of work spans %.3f-%.3f ns across the sizes, more than 4x", lo, hi)
	}

	for _, parties := range []int{5000, 20000, 80000} {
		cfg := SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "oort", Aggregation: "buffered",
			Parties: parties, Rounds: 4, PartyFraction: 32.5 / float64(parties), Shards: 64, Seed: 1}
		_, bytes := planCost(t, cfg)
		setting, scale, _ := cfg.Resolve()
		var before runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var live uint64
		onRound := func(fl.RoundStats) {
			var m runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m)
			live = max(live, m.HeapAlloc-min(m.HeapAlloc, before.HeapAlloc))
		}
		if _, _, err := RunSettingClusters(context.Background(), setting, scale, onRound, nil, nil); err != nil {
			t.Fatal(err)
		}
		ratio := bytes / float64(live)
		t.Logf("%d parties: byte term %.1f MB, live heap %.1f MB (%.2fx)", parties, bytes/1e6, float64(live)/1e6, ratio)
		if ratio < 0.8 || ratio > 1.5 {
			t.Errorf("%d parties: byte term %.1f MB is %.2fx the %.1f MB live heap, want 0.8-1.5x", parties, bytes/1e6, ratio, float64(live)/1e6)
		}
	}
}

// TestAdmissionBounds: a job above the work bound is refused with the term
// and the bound named, and every job the repo runs is admitted — the
// benchmark's five workloads, the example and CI job files, every paper-
// scale artifact cell's worst case, and the 1M-party scale cell.
func TestAdmissionBounds(t *testing.T) {
	t.Parallel()
	err := SimulationConfig{Dataset: "mit-bih-ecg", Rounds: 2e9}.Validate()
	if err == nil || !strings.Contains(err.Error(), "work term") || !strings.Contains(err.Error(), "2e+12 work bound") {
		t.Fatalf("Rounds 2e9: Validate error %v, want the work term refused at its bound", err)
	}
	err = SimulationConfig{Dataset: "femnist", Parties: 300000, PartyFraction: 1, Rounds: 1}.Validate()
	if err == nil || !strings.Contains(err.Error(), "byte term") || !strings.Contains(err.Error(), "3 GiB byte bound") {
		t.Fatalf("a 300k-party full cohort: Validate error %v, want the byte term refused at its bound", err)
	}
	// Admission prices every repeat a job runs: six for a PaperScale job.
	// One repeat of each job below is under both bounds. Six are over the
	// work bound, and six at once over the byte bound, unless Parallelism
	// lets fewer run together.
	err = SimulationConfig{Dataset: "femnist", PaperScale: true, Rounds: 16000, PartyFraction: 1}.Validate()
	if !errors.Is(err, ErrOverBound) || !strings.Contains(err.Error(), "work term") {
		t.Fatalf("six repeats of 16000 full-cohort femnist rounds: Validate error %v, want the work term refused", err)
	}
	err = SimulationConfig{Dataset: "mit-bih-ecg", PaperScale: true, Parties: 600000, Rounds: 1}.Validate()
	if !errors.Is(err, ErrOverBound) || !strings.Contains(err.Error(), "byte term") {
		t.Fatalf("six 600k-party repeats at once: Validate error %v, want the byte term refused", err)
	}
	if err := (SimulationConfig{Dataset: "mit-bih-ecg", PaperScale: true, Parties: 600000, Rounds: 1, Parallelism: 2}).Validate(); err != nil {
		t.Fatalf("two 600k-party repeats at once: %v", err)
	}

	admitted := map[string]SimulationConfig{
		// The jobs of benchmark/workloads.go at its full scale.
		"paper_noniid": {Dataset: "femnist", Algorithm: "fedyogi", Strategy: "flips", Alpha: 0.3, PartyFraction: 0.2,
			DeviceProfile: "lognormal", Availability: "churn", PaperScale: true, Rounds: 105, Seed: 1},
		"fleet_async": {Dataset: "mit-bih-ecg", Strategy: "oort", Aggregation: "buffered", DeviceProfile: "lognormal",
			Availability: "churn", Parties: 20000, Rounds: 10000, PartyFraction: 0.0016, Shards: 64, Seed: 1},
		"masked_sync": {Dataset: "mit-bih-ecg", Strategy: "flips", DeviceProfile: "lognormal", Availability: "churn",
			Deadline: 60, Mask: true, Clip: 1, Parties: 200, Rounds: 136, Seed: 1},
		"server_mixed femnist": {Dataset: "femnist", Strategy: "flips", Parties: 60, Rounds: 100, Seed: 1},
		"server_mixed semisync": {Dataset: "mit-bih-ecg", Strategy: "tifl", Aggregation: "semisync", DeviceProfile: "lognormal",
			Availability: "churn", Deadline: 60, Parties: 60, Rounds: 100, Seed: 1},
		// The 1M-party FLIPS scale cell.
		"scale 1M": fleetCell(FleetSweep{Rounds: 8, PartiesPerRound: 32, Strategy: StrategyFLIPS}, 1_000_000, 64),
		// A long job a user cancels (the job server's cancel demonstration).
		"100k rounds": {Dataset: "mit-bih-ecg", Strategy: "random", Rounds: 100000, Parties: 6, Seed: 5},
	}
	// The worst paper-scale artifact cell of each dataset: the full round
	// budget of the largest arm, at two local epochs (the plain-averaging
	// algorithms) and every party in the cohort.
	for _, spec := range dataset.AllSpecs() {
		admitted["paper "+spec.Name] = SimulationConfig{Dataset: spec.Name, Algorithm: AlgoFedAvg, Strategy: StrategyFLIPS,
			PaperScale: true, Rounds: 400, PartyFraction: 1, Seed: 1}
	}
	files, _ := filepath.Glob("../../examples/*.json")
	files = append(files, "../../.github/selftest-job.json", "../../.github/dist-smoke-job.json")
	for _, path := range files {
		cfg, err := DecodeSimulationConfigFile(path)
		if err != nil {
			t.Fatal(err)
		}
		admitted[path] = cfg
	}
	if len(files) < 5 {
		t.Fatalf("found %d job files, want the examples and both CI jobs", len(files))
	}
	for name, cfg := range admitted {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s refused: %v", name, err)
			continue
		}
		work, bytes := planCost(t, cfg)
		t.Logf("%s: work %.3g, %.3f GiB", name, work, bytes/(1<<30))
		if work > maxJobWork/10 || bytes > maxJobBytes/2 {
			t.Errorf("%s: work %.3g, %.2f GiB: within 10x of the work bound or 2x of the byte bound", name, work, bytes/(1<<30))
		}
	}
}
