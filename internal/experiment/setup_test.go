package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flips/internal/dist"
	"flips/internal/fl"
)

// setUpJob is the small job the set-up tests run over loopback workers.
var setUpJob = SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "random", Parties: 30, Rounds: 3, Seed: 42}

// startSetUpWorkers boots a coordinator with n in-process workers serving
// builder and waits until all n have registered.
func startSetUpWorkers(t testing.TB, n int, builder dist.Builder) *dist.Coordinator {
	t.Helper()
	coord, stop, err := startWorkers(func(addr string, n int) (func(), error) {
		for i := 0; i < n; i++ {
			go func() { _ = dist.RunWorker(addr, dist.WorkerOptions{Builder: builder, Parallelism: 1}) }()
		}
		return func() {}, nil
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return coord
}

// signalling wraps the product's worker builder: each assignment first sends
// on entered, then waits until proceed is closed.
func signalling(entered chan<- struct{}, proceed <-chan struct{}) dist.Builder {
	build := DistWorkerBuilder()
	return func(spec []byte, lo, hi int) (dist.JobSetup, error) {
		entered <- struct{}{}
		<-proceed
		return build(spec, lo, hi)
	}
}

// requireIdle claims all n of coord's workers for a fresh job of cfg under a
// bounded wait: it succeeds only if every one of them is back in the idle
// pool.
func requireIdle(t *testing.T, coord *dist.Coordinator, cfg SimulationConfig, n int) {
	t.Helper()
	spec, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bounded, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	job, err := dist.NewJobContext(bounded, coord, spec, cfg.Parties, n)
	if err != nil {
		t.Fatalf("the idle pool does not hold all %d workers: %v", n, err)
	}
	job.Close()
}

// TestFailedBuildReleasesClaimedWorkers fails the coordinator's build once
// both workers have been claimed and are building their shards: set-up
// returns the build's error, and the idle pool holds both workers again.
func TestFailedBuildReleasesClaimedWorkers(t *testing.T) {
	t.Parallel()
	const workers = 2
	// One send per assignment: set-up's and requireIdle's.
	entered, proceed := make(chan struct{}, 2*workers), make(chan struct{})
	close(proceed)
	coord := startSetUpWorkers(t, workers, signalling(entered, proceed))
	setting, scale, err := setUpJob.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	failure := errors.New("the coordinator's build failed")
	_, _, _, err = setUp(context.Background(), setting.Seed, scale.Parties, AttachDist(coord, setUpJob, workers, nil),
		func(context.Context) (*BuildResult, error) {
			for i := 0; i < workers; i++ {
				<-entered
			}
			return nil, failure
		})
	if !errors.Is(err, failure) {
		t.Fatalf("set-up returned %v, want the build's error", err)
	}
	requireIdle(t, coord, setUpJob, workers)
}

// TestFailedBuildStopsTheClaim fails the coordinator's build while its
// Attach waits for workers that never come: set-up returns the build's
// error instead of waiting with it.
func TestFailedBuildStopsTheClaim(t *testing.T) {
	t.Parallel()
	coord := startSetUpWorkers(t, 0, nil)
	setting, scale, err := setUpJob.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	failure := errors.New("the coordinator's build failed")
	returned := make(chan error, 1)
	go func() {
		_, _, _, err := setUp(context.Background(), setting.Seed, scale.Parties, AttachDist(coord, setUpJob, 2, nil),
			func(context.Context) (*BuildResult, error) { return nil, failure })
		returned <- err
	}()
	select {
	case err := <-returned:
		if !errors.Is(err, failure) {
			t.Fatalf("set-up returned %v, want the build's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("set-up still waits for workers after its build failed")
	}
}

// TestFailedAssignmentStopsTheBuild serves workers whose builder refuses
// every job: the assignment fails, the build's context is done by the time
// the build looks at it, so the build stops before its first stage, and
// set-up returns the assignment's error, not the build's.
func TestFailedAssignmentStopsTheBuild(t *testing.T) {
	t.Parallel()
	coord := startSetUpWorkers(t, 2, func([]byte, int, int) (dist.JobSetup, error) {
		return dist.JobSetup{}, errors.New("this worker refuses the job")
	})
	setting, scale, err := setUpJob.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var buildErr error
	_, _, _, err = setUp(context.Background(), setting.Seed, scale.Parties, AttachDist(coord, setUpJob, 2, nil),
		func(ctx context.Context) (*BuildResult, error) {
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
			}
			var built *BuildResult
			built, buildErr = BuildContext(ctx, setting, scale)
			return built, buildErr
		})
	if err == nil || !strings.Contains(err.Error(), "this worker refuses the job") {
		t.Fatalf("set-up returned %v, want the assignment's error", err)
	}
	if !errors.Is(buildErr, context.Canceled) || !strings.Contains(buildErr.Error(), "before generate") {
		t.Fatalf("the build returned %v, want it stopped before its first stage", buildErr)
	}
}

// TestCancelDuringSetUpReleasesWorkers cancels a distributed cell while both
// workers are building their shards: the cell returns the cancel, wrapped,
// no round runs, and the idle pool holds both workers again.
func TestCancelDuringSetUpReleasesWorkers(t *testing.T) {
	t.Parallel()
	const workers = 2
	// One send per assignment: set-up's and requireIdle's.
	entered, proceed := make(chan struct{}, 2*workers), make(chan struct{})
	coord := startSetUpWorkers(t, workers, signalling(entered, proceed))
	setting, scale, err := setUpJob.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for i := 0; i < workers; i++ {
			<-entered
		}
		cancel()
		close(proceed)
	}()
	_, _, err = RunSettingClusters(ctx, setting, scale, func(fl.RoundStats) { t.Error("a round ran after a cancel during set-up") }, nil,
		AttachDist(coord, setUpJob, workers, nil))
	if !errors.Is(err, context.Canceled) || err == context.Canceled {
		t.Fatalf("cancelled cell returned %v, want context.Canceled wrapped", err)
	}
	requireIdle(t, coord, setUpJob, workers)
}

// TestRefusedJobReachesNoWorker: a cell the plan refuses returns the
// refusal without starting its Attach, so no worker is claimed for it.
func TestRefusedJobReachesNoWorker(t *testing.T) {
	t.Parallel()
	setting, scale, err := setUpJob.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	setting.PartyFraction = 1.5
	var attached atomic.Bool
	_, _, err = RunSettingClusters(context.Background(), setting, scale, nil, nil,
		func(context.Context, uint64, int) (fl.ShardTransport, func(), error) {
			attached.Store(true)
			return nil, func() {}, nil
		})
	if err == nil || !strings.Contains(err.Error(), "party fraction") {
		t.Fatalf("refused cell returned %v, want the plan's refusal", err)
	}
	if attached.Load() {
		t.Fatal("a refused cell started its Attach")
	}
}

// BenchmarkDistSetup times a distributed job from RunSettingClusters to its
// first round: fleet_async's 20k-party buffered Oort job through two
// loopback workers, whose shard builds overlap the coordinator's. Each op
// cancels its job at the first round; the timer stops there, so ns/op and
// allocs/op cover set-up and round 1 — three builds, the assignment and the
// first waves — and not the wind-down.
func BenchmarkDistSetup(b *testing.B) {
	cfg := SimulationConfig{
		Dataset: "mit-bih-ecg", Strategy: "oort", Aggregation: "buffered",
		DeviceProfile: "lognormal", Availability: "churn",
		Parties: 20000, Rounds: 10000, PartyFraction: 0.0016, Shards: 64,
		Parallelism: 2, Seed: 7,
	}
	setting, scale, err := cfg.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	coord := startSetUpWorkers(b, 2, DistWorkerBuilder())
	attach := AttachDist(coord, cfg, 2, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		first := true
		// The hook runs on the evaluator goroutine, which the run joins
		// before it returns: the timer is stopped once, before the loop
		// starts it again.
		_, _, err := RunSettingClusters(ctx, setting, scale, func(fl.RoundStats) {
			if first {
				first = false
				b.StopTimer()
				cancel()
			}
		}, nil, attach)
		cancel()
		if !errors.Is(err, context.Canceled) {
			b.Fatalf("run stopped at its first round returned %v", err)
		}
		b.StartTimer()
	}
}
