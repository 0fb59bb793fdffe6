package fl

import (
	"math"
	"testing"

	"flips/internal/dataset"
	"flips/internal/model"
	"flips/internal/rng"
	"flips/internal/tensor"
)

func TestShardSpaceMapping(t *testing.T) {
	t.Parallel()
	cases := []struct{ parties, shards int }{
		{1, 1}, {10, 1}, {10, 3}, {10, 10}, {10, 64}, {100000, 64}, {7, 0}, {5, -2},
	}
	for _, tc := range cases {
		sp := newShardSpace(tc.parties, tc.shards)
		if sp.K < 1 || sp.K > tc.parties {
			t.Fatalf("space(%d,%d): %d shards", tc.parties, tc.shards, sp.K)
		}
		// Every id maps into exactly the shard whose bounds contain it, and
		// the bounds tile [0, parties) without gaps or overlap.
		next := 0
		for sh := 0; sh < sp.K; sh++ {
			// Shard s owns [ceil(s·N/S), ceil((s+1)·N/S)).
			lo := (sh*tc.parties + sp.K - 1) / sp.K
			hi := ((sh+1)*tc.parties + sp.K - 1) / sp.K
			if lo != next {
				t.Fatalf("space(%d,%d): shard %d starts at %d, want %d", tc.parties, tc.shards, sh, lo, next)
			}
			if hi <= lo {
				t.Fatalf("space(%d,%d): shard %d empty [%d,%d)", tc.parties, tc.shards, sh, lo, hi)
			}
			for id := lo; id < hi; id++ {
				if got := sp.Of(id); got != sh {
					t.Fatalf("space(%d,%d): id %d in shard %d, bounds say %d", tc.parties, tc.shards, id, got, sh)
				}
			}
			next = hi
		}
		if next != tc.parties {
			t.Fatalf("space(%d,%d): shards tile to %d, want %d", tc.parties, tc.shards, next, tc.parties)
		}
	}
}

// TestPartySet checks the packed flags against a []bool reference over
// random adds and removes, word edges included.
func TestPartySet(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	for _, n := range []int{1, 63, 64, 65, 1000} {
		set, ref := newPartySet(n), make([]bool, n)
		for step := 0; step < 20*n; step++ {
			id := r.Intn(n)
			if r.Intn(2) == 0 {
				set.add(id)
				ref[id] = true
			} else {
				set.remove(id)
				ref[id] = false
			}
			if probe := r.Intn(n); set.has(probe) != ref[probe] {
				t.Fatalf("n=%d step %d: has(%d) = %v, want %v", n, step, probe, set.has(probe), ref[probe])
			}
		}
		for id := range ref {
			if set.has(id) != ref[id] {
				t.Fatalf("n=%d: has(%d) = %v, want %v", n, id, set.has(id), ref[id])
			}
		}
	}
}

// TestShardedFoldsAreBitExact pins the mean fold bit for bit against its
// definition, written one coordinate at a time.
func TestShardedFoldsAreBitExact(t *testing.T) {
	t.Parallel()
	r := rng.New(99)
	const dim, nUpdates = 103, 7
	global := tensor.NewVec(dim)
	for i := range global {
		global[i] = r.NormFloat64()
	}
	updates := make([]tensor.Vec, nUpdates)
	weights := make([]float64, nUpdates)
	for j := range updates {
		u := tensor.NewVec(dim)
		for i := range u {
			u[i] = r.NormFloat64()
		}
		updates[j] = u
		weights[j] = 1 + r.Float64()*50
	}

	// The reference is the definition, one coordinate at a time: the same
	// operation sequence per coordinate as the fold's update-major loops,
	// written independently of it.
	reference := func(global tensor.Vec) tensor.Vec {
		var total float64
		for _, w := range weights {
			total += w
		}
		out := tensor.NewVec(dim)
		for i := range out {
			for j, u := range updates {
				v := u[i]
				if global != nil {
					v -= global[i]
				}
				out[i] += weights[j] / total * v
			}
		}
		return out
	}
	wantAvg, wantDelta := reference(global), reference(nil)

	gotAvg := tensor.NewVec(dim)
	WeightedAverageDeltaShardedInto(gotAvg, global, updates, weights, nil, 1)
	gotDelta := tensor.NewVec(dim)
	WeightedAverageDeltaShardedInto(gotDelta, nil, updates, weights, nil, 1)
	for i := range wantAvg {
		if math.Float64bits(wantAvg[i]) != math.Float64bits(gotAvg[i]) {
			t.Fatalf("avg fold bit-diverges at %d", i)
		}
		if math.Float64bits(wantDelta[i]) != math.Float64bits(gotDelta[i]) {
			t.Fatalf("delta fold bit-diverges at %d", i)
		}
	}

	// Degenerate inputs: no updates, zero mass — dst must still be zeroed.
	dirty := tensor.NewVec(dim)
	for i := range dirty {
		dirty[i] = 1
	}
	WeightedAverageDeltaShardedInto(dirty, global, nil, nil, nil, 1)
	for i := range dirty {
		if dirty[i] != 0 {
			t.Fatal("empty fold left stale data")
		}
	}
	zeroW := make([]float64, nUpdates)
	for i := range dirty {
		dirty[i] = 1
	}
	WeightedAverageDeltaShardedInto(dirty, nil, updates, zeroW, nil, 1)
	for i := range dirty {
		if dirty[i] != 0 {
			t.Fatal("zero-mass fold left stale data")
		}
	}
}

// buildFleetJob materializes a party fleet of arbitrary size cheaply: a small
// shared sample pool is dealt to parties in wrapped slices (parties reference
// the same backing samples; the engine treats party data as read-only), and
// latencies follow a deterministic spread with no RNG. This keeps 10k- and
// 100k-party constructions in the tens of milliseconds for the scale tests
// and benchmarks.
func buildFleetJob(tb testing.TB, parties, samplesPerParty int) ([]*Party, *dataset.Dataset, dataset.Spec) {
	tb.Helper()
	spec := dataset.ECG().WithSizes(2048, 256)
	train, test, err := dataset.Generate(spec, rng.New(0xF1EE7))
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*Party, parties)
	n := len(train.Samples)
	for i := range out {
		data := make([]dataset.Sample, samplesPerParty)
		for j := range data {
			data[j] = train.Samples[(i*samplesPerParty+j)%n]
		}
		out[i] = &Party{
			ID:      i,
			Data:    data,
			Latency: 0.5 + 0.1*float64(i%7),
		}
	}
	return out, test, spec
}

// fleetConfig is the scale-suite engine configuration: a buffered
// (FedBuff-style) run over a synthetic fleet on the legacy latency clock.
func fleetConfig(tb testing.TB, parties, shards, rounds int) Config {
	tb.Helper()
	pool, test, spec := buildFleetJob(tb, parties, 4)
	return Config{
		Parties:         pool,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       &FedAvg{},
		Selector:        &rotatingSelector{n: parties},
		Rounds:          rounds,
		PartiesPerRound: 16,
		SGD:             model.SGDConfig{LearningRate: 0.05, BatchSize: 4, LocalEpochs: 1},
		EvalEvery:       rounds,
		Parallelism:     1,
		Aggregation:     Buffered{K: 8},
		Shards:          shards,
		Seed:            0xF1EE7,
	}
}

// TestFleetScaleShardInvariance runs a 10k-party buffered job and asserts the
// sharded engine reproduces the unsharded result byte-for-byte — the scale
// companion of the small-scale golden shard-invariance pin. The 100k variant
// runs only without -short.
func TestFleetScaleShardInvariance(t *testing.T) {
	t.Parallel()
	parties := 10_000
	if testing.Short() {
		parties = 3_000
	}
	base, err := Run(fleetConfig(t, parties, 0, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, 64} {
		cfg := fleetConfig(t, parties, shards, 6)
		cfg.Parallelism = 4
		sharded, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, base, sharded)
	}
	if base.History[len(base.History)-1].ShardsTouched == 0 {
		t.Fatal("sharded run reported no touched shards")
	}
}

// TestFleetScale100k is the headline scale acceptance: a 100k-party buffered
// run at 64 shards completes and evaluates. Skipped under -short.
func TestFleetScale100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-party run skipped in short mode")
	}
	t.Parallel()
	res, err := Run(fleetConfig(t, 100_000, 64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 || res.History[len(res.History)-1].Completed == 0 {
		t.Fatalf("100k run produced no completed arrivals: %+v", res.History)
	}
}

// TestShardsTouchedMetric checks the streaming locality metric: with one
// shard it is 1 whenever anything completed; with many shards it is bounded
// by the completed count and the shard count.
func TestShardsTouchedMetric(t *testing.T) {
	t.Parallel()
	res, err := Run(fleetConfig(t, 3000, 64, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.History {
		if h.Completed > 0 && (h.ShardsTouched < 1 || h.ShardsTouched > h.Completed || h.ShardsTouched > 64) {
			t.Fatalf("round %d: %d shards touched with %d completed", h.Round, h.ShardsTouched, h.Completed)
		}
	}
	single, err := Run(fleetConfig(t, 3000, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range single.History {
		if h.Completed > 0 && h.ShardsTouched != 1 {
			t.Fatalf("single-shard round %d reports %d shards", h.Round, h.ShardsTouched)
		}
	}
}

func TestNegativeShardsRejected(t *testing.T) {
	t.Parallel()
	cfg := fleetConfig(t, 100, -1, 2)
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative shard count accepted")
	}
}
