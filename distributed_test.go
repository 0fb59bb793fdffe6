package flips

import (
	"math"
	"strings"
	"testing"
	"time"

	"flips/internal/dist"
)

// distTestConfig is a small but non-trivial job: non-IID split, FedYogi
// server optimizer, legacy stragglers — everything coordinator-side that the
// distributed path must keep byte-identical.
func distTestConfig() SimulationConfig {
	return SimulationConfig{
		Dataset:       "mit-bih-ecg",
		Strategy:      "random",
		Parties:       30,
		Rounds:        3,
		StragglerRate: 0.2,
		Seed:          42,
	}
}

func startRunner(t *testing.T, workers int) *DistRunner {
	t.Helper()
	coord := dist.NewCoordinator()
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	for i := 0; i < workers; i++ {
		go func() {
			_ = dist.RunWorker(addr, dist.WorkerOptions{Builder: DistWorkerBuilder(), Parallelism: 1})
		}()
	}
	if err := coord.AwaitWorkers(workers, 10*time.Second); err != nil {
		t.Fatalf("await workers: %v", err)
	}
	return &DistRunner{Coord: coord, Workers: workers}
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func requireSameResult(t *testing.T, label string, want, got *SimulationResult) {
	t.Helper()
	if len(want.History) != len(got.History) {
		t.Fatalf("%s: history length %d, want %d", label, len(got.History), len(want.History))
	}
	for i := range want.History {
		w, g := want.History[i], got.History[i]
		if !sameBits(w.Accuracy, g.Accuracy) || !sameBits(w.MeanLoss, g.MeanLoss) ||
			!sameBits(w.SimTime, g.SimTime) || w.CommBytes != g.CommBytes ||
			w.Invited != g.Invited || w.Completed != g.Completed {
			t.Fatalf("%s: round %d diverged: %+v vs %+v", label, i, g, w)
		}
		for j := range w.PerLabel {
			if !sameBits(w.PerLabel[j], g.PerLabel[j]) {
				t.Fatalf("%s: round %d label %d accuracy diverged", label, i, j)
			}
		}
	}
	if !sameBits(want.PeakAccuracy, got.PeakAccuracy) || want.RoundsToTarget != got.RoundsToTarget ||
		!sameBits(want.SimTime, got.SimTime) || want.TotalCommBytes != got.TotalCommBytes {
		t.Fatalf("%s: summary diverged: %+v vs %+v", label, got, want)
	}
}

// TestDistRunnerMatchesInProcess runs the same job in-process and over 1- and
// 3-worker process fleets (loopback connections, worker protocol end to end)
// and requires byte-identical convergence histories.
func TestDistRunnerMatchesInProcess(t *testing.T) {
	cfg := distTestConfig()
	var points []RoundPoint
	want, err := RunSimulationStream(cfg, func(p RoundPoint) { points = append(points, p) })
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	if len(points) != len(want.History) {
		t.Fatalf("in-process streamed %d rounds, history has %d", len(points), len(want.History))
	}
	for _, workers := range []int{1, 3} {
		r := startRunner(t, workers)
		var streamed []RoundPoint
		got, err := r.Run(cfg, func(p RoundPoint) { streamed = append(streamed, p) })
		if err != nil {
			t.Fatalf("distributed run (%d workers): %v", workers, err)
		}
		requireSameResult(t, "distributed", want, got)
		if len(streamed) != len(want.History) {
			t.Fatalf("distributed streamed %d rounds, want %d", len(streamed), len(want.History))
		}
		stats := r.WorkerStats()
		if len(stats) != 1 {
			t.Fatalf("worker stats retained %d jobs, want the finished job's snapshot", len(stats))
		}
		for _, slots := range stats {
			if len(slots) != workers {
				t.Fatalf("retained snapshot has %d slots, want %d", len(slots), workers)
			}
			for _, st := range slots {
				if !st.Connected || st.Waves == 0 {
					t.Fatalf("retained slot %d not a working snapshot: %+v", st.Slot, st)
				}
			}
		}
	}
}

// TestDistRunnerAveragesRepeatsLikeInProcess pins the one run path on a
// PaperScale-shaped job: six repeats, each with its own seed. The headline
// numbers are across-seed means, so a distributed run that executed a single
// repeat — or handed its workers a fleet built from the wrong seed — returns
// a different result. The label-flip variant poisons party data at build
// time from the chaos seed, which a repeat re-seeds too, so it also checks
// that every worker rebuilt every repeat's poisoned fleet.
func TestDistRunnerAveragesRepeatsLikeInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("six PaperScale-sized fleets per run")
	}
	r := startRunner(t, 2)
	for name, cfg := range map[string]SimulationConfig{
		"plain":      {Dataset: "mit-bih-ecg", Strategy: "random", PaperScale: true, Parties: 12, Rounds: 4, Seed: 5},
		"label-flip": {Dataset: "mit-bih-ecg", Strategy: "random", PaperScale: true, Parties: 12, Rounds: 4, Seed: 5, FaultModel: "label-flip", FaultFraction: 0.5},
	} {
		want, err := RunSimulation(cfg)
		if err != nil {
			t.Fatalf("%s: in-process run: %v", name, err)
		}
		firstPeak := 0.0
		for _, p := range want.History {
			firstPeak = math.Max(firstPeak, p.Accuracy)
		}
		if sameBits(firstPeak, want.PeakAccuracy) {
			t.Fatalf("%s: the six-seed mean equals the first seed's peak; the job cannot tell one repeat from six", name)
		}
		got, err := r.Run(cfg, nil)
		if err != nil {
			t.Fatalf("%s: distributed run: %v", name, err)
		}
		requireSameResult(t, name, want, got)
		if !sameBits(want.TimeToTarget, got.TimeToTarget) {
			t.Fatalf("%s: time to target %v, want %v", name, got.TimeToTarget, want.TimeToTarget)
		}
	}
	if stats := r.WorkerStats(); len(stats) != retainedJobStats {
		t.Fatalf("worker stats retained %d jobs, want %d of the 12 repeats", len(stats), retainedJobStats)
	}
}

// TestDistWorkerBuilderRefusesWhatTheServerRefuses assigns a worker specs
// POST /jobs would answer with 400. The worker must decode them with the same
// strict decoder and answer with an error frame instead of building a fleet.
func TestDistWorkerBuilderRefusesWhatTheServerRefuses(t *testing.T) {
	for name, tc := range map[string]struct{ spec, want string }{
		"unknown field": {`{"Dataset":"mit-bih-ecg","Carburetor":true}`, "unknown field"},
		"invalid":       {`{"Dataset":"mit-bih-ecg","Mask":true,"Fold":"median"}`, "mask"},
		"not json":      {`{not json`, "malformed job config"},
	} {
		r := startRunner(t, 1)
		_, err := dist.NewJob(r.Coord, []byte(tc.spec), 8, 1)
		if err == nil || !strings.Contains(err.Error(), "peer error") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewJob error %v, want the worker's error frame mentioning %q", name, err, tc.want)
		}
	}
	if _, err := DistWorkerBuilder()([]byte(`{"Dataset":"mit-bih-ecg","Parties":8,"Rounds":1}`), 0, 8); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
}

// TestDistRunnerRejectsMisconfiguration covers the error paths callers hit
// before any worker traffic.
func TestDistRunnerRejectsMisconfiguration(t *testing.T) {
	r := &DistRunner{}
	if _, err := r.Run(distTestConfig(), nil); err == nil {
		t.Fatal("nil coordinator accepted")
	}
	r = startRunner(t, 1)
	bad := distTestConfig()
	bad.Dataset = "no-such-dataset"
	if _, err := r.Run(bad, nil); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestPartiesOverrideBumpsTrainSize pins the resolve() rule that keeps
// Dirichlet partitioning feasible for fleet-scale Parties overrides: the
// training set grows to at least two samples per party.
func TestPartiesOverrideBumpsTrainSize(t *testing.T) {
	cfg := SimulationConfig{Dataset: "mit-bih-ecg", Parties: 10000}
	_, scale, err := cfg.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if scale.TrainSize < 2*scale.Parties {
		t.Fatalf("train size %d not bumped for %d parties", scale.TrainSize, scale.Parties)
	}
}
