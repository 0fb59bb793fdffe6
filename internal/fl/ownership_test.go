package fl_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"

	"flips"
	"flips/internal/chaos"
	"flips/internal/dist"
	"flips/internal/fl"
	"flips/internal/model"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// The ownership suite: with fl.PoisonFreed every update vector is NaN-filled
// the moment it returns to the engine's free list, so a vector recycled while
// anything still reads it — a fold, a mask wave, a report's Update,
// an in-flight async update — poisons the run. Every arm here must report,
// poisoned, exactly what the unpoisoned run reports. None of these tests may
// run in parallel: the poison switch is process-wide.

// cloneTransport is the engine's training before update vectors were
// recycled, kept as the reference for it: every party trains a fresh replica
// through model.TrainLocalScratch, whose result is a clone of its own, one
// party after another.
type cloneTransport struct{ cfg *fl.Config }

func (ct cloneTransport) TrainWave(d fl.TrainDispatch, out []model.LocalResult) error {
	for i, id := range d.IDs {
		local := ct.cfg.Factory(rng.New(0))
		local.SetParams(d.Params)
		var scratch model.TrainScratch
		lr := model.TrainLocalScratch(local, ct.cfg.Parties[id].Data, d.SGD, d.Params, rng.FromState(d.RngStates[i]), &scratch)
		copy(out[i].Params, lr.Params)
		lr.Params = out[i].Params
		out[i] = lr
	}
	return nil
}

// runDigest prints everything an engine run reports but ShardsTouched,
// which counts shards and so follows the shard count; %v prints each float in
// its shortest round-tripping form, so equal digests mean equal bits.
func runDigest(res *fl.Result) string {
	return fmt.Sprintf("%v|%v %v %v %v %v|%v", historyDigest(res.History), res.PeakAccuracy, res.RoundsToTarget,
		res.SimTime, res.TimeToTarget, res.TotalCommBytes, res.FinalParams)
}

func jobDigest(res *flips.SimulationResult) string {
	return fmt.Sprintf("%v|%v %v %v %v %v %v", historyDigest(res.History), res.PeakAccuracy, res.RoundsToTarget,
		res.SimTime, res.TimeToTarget, res.TotalCommBytes, res.NumClusters)
}

func historyDigest(h []fl.RoundStats) string {
	var b bytes.Buffer
	for _, st := range h {
		st.ShardsTouched = 0
		fmt.Fprintf(&b, "%v;", st)
	}
	return b.String()
}

func golden(t *testing.T, name string) fl.Config {
	t.Helper()
	cfg, err := fl.GoldenConfigs()[name]()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return cfg
}

func mustRun(t *testing.T, label string, cfg fl.Config) *fl.Result {
	t.Helper()
	res, err := fl.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res
}

// TestOwnershipGoldens runs the six goldens poisoned at pool width {1, 4} ×
// shards {1, 5} and through the clone-per-party reference transport.
func TestOwnershipGoldens(t *testing.T) {
	want := map[string]string{}
	for name := range fl.GoldenConfigs() {
		want[name] = runDigest(mustRun(t, name, golden(t, name)))
	}
	fl.PoisonFreed(t)
	for name := range fl.GoldenConfigs() {
		for _, shape := range [][2]int{{1, 1}, {4, 1}, {1, 5}, {4, 5}} {
			cfg := golden(t, name)
			cfg.Parallelism, cfg.Shards = shape[0], shape[1]
			if got := runDigest(mustRun(t, name, cfg)); got != want[name] {
				t.Errorf("%s poisoned at width %d shards %d differs from the unpoisoned run", name, shape[0], shape[1])
			}
		}
		cfg := golden(t, name)
		cfg.Transport = cloneTransport{&cfg}
		if got := runDigest(mustRun(t, name, cfg)); got != want[name] {
			t.Errorf("%s poisoned over the clone-per-party transport differs from the unpoisoned run", name)
		}
	}
}

// ownershipJobs are small jobs, one per configuration whose vectors live
// past the plain sync fold or take another route to it: the async policies
// (buffered and semisync with an update-consuming selector, whose reports'
// Update vectors alias the buffered updates — under semisync a late window
// arrival's too), masked waves settling in their own round, at a later
// arrival, or at a window deadline with late stragglers still queued,
// FedDyn's corrected vectors, and byzantine corrupt-delta parties on both
// sides of the fold.
var ownershipJobs = []string{
	`{"Dataset":"mit-bih-ecg","Strategy":"oort","DeviceProfile":"lognormal","Availability":"churn","Aggregation":"buffered","Rounds":8,"Parties":24,"Seed":5}`,
	`{"Dataset":"mit-bih-ecg","Strategy":"gradclus","DeviceProfile":"lognormal","Aggregation":"buffered","Rounds":8,"Parties":24,"Seed":6}`,
	`{"Dataset":"mit-bih-ecg","Strategy":"random","DeviceProfile":"lognormal","Aggregation":"semisync","Deadline":2,"Rounds":8,"Parties":24,"Seed":7}`,
	`{"Dataset":"mit-bih-ecg","Strategy":"divergence","DeviceProfile":"lognormal","Aggregation":"semisync","Deadline":2,"Rounds":8,"Parties":24,"Seed":13}`,
	`{"Dataset":"mit-bih-ecg","Strategy":"random","StragglerRate":0.2,"Mask":true,"Clip":1,"Rounds":6,"Parties":16,"Seed":8}`,
	`{"Dataset":"mit-bih-ecg","Strategy":"oort","DeviceProfile":"lognormal","Availability":"churn","Aggregation":"buffered","Mask":true,"ShareThreshold":2,"Rounds":8,"Parties":24,"Seed":1}`,
	`{"Dataset":"mit-bih-ecg","Strategy":"random","DeviceProfile":"lognormal","Aggregation":"semisync","Deadline":2,"Mask":true,"ShareThreshold":2,"Rounds":8,"Parties":24,"Seed":9}`,
	`{"Dataset":"mit-bih-ecg","Algorithm":"feddyn","Strategy":"gradclus","Rounds":6,"Parties":16,"Seed":10}`,
	`{"Dataset":"mit-bih-ecg","Strategy":"random","FaultModel":"byzantine","FaultFraction":0.25,"Fold":"median","Rounds":6,"Parties":16,"Seed":11}`,
	`{"Dataset":"mit-bih-ecg","Strategy":"random","DeviceProfile":"lognormal","Aggregation":"buffered","FaultModel":"byzantine","FaultFraction":0.25,"Rounds":8,"Parties":24,"Seed":12}`,
}

// TestOwnershipJobs runs each ownership job poisoned at parallelism {1, 8} ×
// shards {1, 5}, as TestJobInvariance does, and once more through DistRunner
// over two loopback shard workers, where result vectors are decoded in place.
func TestOwnershipJobs(t *testing.T) {
	coord := dist.NewCoordinator()
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	for i := 0; i < 2; i++ {
		go func() {
			_ = dist.RunWorker(addr, dist.WorkerOptions{Builder: flips.DistWorkerBuilder(), Parallelism: 1})
		}()
	}
	if err := coord.AwaitWorkers(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	runner := &flips.DistRunner{Coord: coord, Workers: 2}

	cfgs := make([]flips.SimulationConfig, len(ownershipJobs))
	want := make([]string, len(ownershipJobs))
	for i, spec := range ownershipJobs {
		if cfgs[i], err = flips.DecodeSimulationConfig(bytes.NewReader([]byte(spec))); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		res, err := flips.RunSimulation(cfgs[i])
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		want[i] = jobDigest(res)
	}
	fl.PoisonFreed(t)
	for i, spec := range ownershipJobs {
		cfg := cfgs[i]
		for _, shape := range [][2]int{{1, 1}, {8, 1}, {1, 5}, {8, 5}} {
			cfg.Parallelism, cfg.Shards = shape[0], shape[1]
			res, err := flips.RunSimulation(cfg)
			if err != nil {
				t.Fatalf("%s at parallelism %d shards %d: %v", spec, shape[0], shape[1], err)
			}
			if jobDigest(res) != want[i] {
				t.Errorf("%s poisoned at parallelism %d shards %d differs from the unpoisoned run", spec, shape[0], shape[1])
			}
		}
		res, err := runner.Run(context.Background(), cfgs[i], nil)
		if err != nil {
			t.Fatalf("%s over 2 shard workers: %v", spec, err)
		}
		if jobDigest(res) != want[i] {
			t.Errorf("%s poisoned over 2 shard workers differs from the unpoisoned in-process run", spec)
		}
	}
}

// nanInjector NaN-poisons one party's reported delta and perturbs nothing
// else.
type nanInjector struct{ target int }

func (nanInjector) ForceOffline(int, int) bool          { return false }
func (nanInjector) LatencyFactor(int, int) float64      { return 1 }
func (nanInjector) CohortTarget(_, target int) int      { return target }
func (n nanInjector) Corrupts(id int) bool              { return id == n.target }
func (nanInjector) CorruptDelta(_, _ int, d tensor.Vec) { d[0] = math.NaN() }

// syncPin is a job pinned by the sha256 of its runDigest and the number of
// updates it rejects.
type syncPin struct {
	name, digest string
	rejected     int
	cfg          fl.Config
}

// syncPins are the sync paths no golden covers: the legacy straggler
// coin-flip with chaos outages stacked on it, and masked sync rounds whose
// NaN-poisoned member is rejected and reconstructed as a dropout.
func syncPins(t *testing.T) []syncPin {
	t.Helper()
	legacy := golden(t, "golden_legacy.json")
	inj, err := chaos.New(chaos.Spec{Seed: 7, Regions: 4, OutageProb: 0.3, OutageLen: 2, DegradedProb: 0.2}, len(legacy.Parties))
	if err != nil {
		t.Fatal(err)
	}
	legacy.Faults = inj
	masked := golden(t, "golden_privacy.json")
	masked.Rounds, masked.EvalEvery = 10, 1
	masked.Faults = nanInjector{target: 0}
	return []syncPin{
		{"legacy+outages", "e775d147184f8eabecead30c1e26b46243d8816e8aa56bc7235c3839a3bc09aa", 0, legacy},
		{"masked-sync+rejections", "8800c1048516e6142056b77a85e934ab97167fde07cfc76d76a382171fb696f7", 5, masked},
	}
}

// TestSyncPins runs each pin plain and with freed vectors NaN-poisoned; both
// must hash to the pinned digest and reject the pinned number of updates.
func TestSyncPins(t *testing.T) {
	for _, poisoned := range []bool{false, true} {
		if poisoned {
			fl.PoisonFreed(t)
		}
		for _, p := range syncPins(t) {
			res := mustRun(t, p.name, p.cfg)
			sum := sha256.Sum256([]byte(runDigest(res)))
			if got := hex.EncodeToString(sum[:]); got != p.digest {
				t.Errorf("%s (poisoned %v): digest %s, want %s", p.name, poisoned, got, p.digest)
			}
			rejected := 0
			for _, h := range res.History {
				rejected += h.Rejected
			}
			if rejected != p.rejected {
				t.Errorf("%s (poisoned %v): %d updates rejected, want %d", p.name, poisoned, rejected, p.rejected)
			}
		}
	}
}
