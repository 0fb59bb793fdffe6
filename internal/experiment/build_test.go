package experiment

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"flips/internal/dataset"
	"flips/internal/fl"
	"flips/internal/partition"
	"flips/internal/rng"
)

// refApplyFeatureShift is the shift as it was when it cloned every sample
// vector before adding the party's offset: the reference the in-place shift
// must reproduce word for word.
func refApplyFeatureShift(parties []*fl.Party, dim int, sigma float64, r *rng.Source) {
	for _, p := range parties {
		pr := r.Split(uint64(p.ID) + 1)
		off := make([]float64, dim)
		for j := range off {
			off[j] = sigma * pr.NormFloat64()
		}
		for i, s := range p.Data {
			x := s.X.Clone()
			for j := range x {
				x[j] += off[j]
			}
			p.Data[i].X = x
		}
	}
}

// refParties builds the whole fleet's data the way buildData does, shifted
// by the cloning reference.
func refParties(t *testing.T, s Setting, scale Scale) []*fl.Party {
	t.Helper()
	pl, err := newPlan(s, scale)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(s.Seed)
	train, _, err := dataset.Generate(pl.spec, root.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Dirichlet(train, scale.Parties, s.Alpha, root.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	parties := fl.PartyData(train, part, 0, scale.Parties)
	root.Split(3) // the latency stream
	refApplyFeatureShift(parties, pl.spec.Dim, pl.profile.FeatureShiftSigma, root.Split(5))
	return parties
}

// checkNoSharedBacking fails if any two of the samples' feature vectors
// overlap in memory.
func checkNoSharedBacking(t *testing.T, what string, samples []dataset.Sample) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	spans := make([]span, 0, len(samples))
	for _, s := range samples {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(s.X)))
		spans = append(spans, span{lo, lo + uintptr(cap(s.X))*8})
	}
	slices.SortFunc(spans, func(a, b span) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("%s: two of %d samples share a backing array", what, len(samples))
		}
	}
}

// TestBuildHoldsOneCopyOfTheData pins the in-place feature shift on every
// dataset: Build and BuildShard of two ranges give each sample its own
// vector, and every party's data equals, word for word, that of a build
// whose shift clones.
func TestBuildHoldsOneCopyOfTheData(t *testing.T) {
	t.Parallel()
	scale := tinyScale()
	for _, spec := range dataset.AllSpecs() {
		s := Setting{Spec: spec, Algorithm: AlgoFedAvg, Alpha: 0.3, PartyFraction: 0.2,
			Strategy: StrategyRandom, Seed: 31}
		if DefaultProfile(spec).FeatureShiftSigma == 0 {
			t.Fatalf("%s: no feature shift; the test proves nothing", spec.Name)
		}
		want := refParties(t, s, scale)
		same := func(what string, got []*fl.Party) {
			t.Helper()
			var all []dataset.Sample
			for _, p := range got {
				ref := want[p.ID]
				if len(p.Data) != len(ref.Data) {
					t.Fatalf("%s %s: party %d has %d samples, reference %d", spec.Name, what, p.ID, len(p.Data), len(ref.Data))
				}
				for j := range p.Data {
					if p.Data[j].Y != ref.Data[j].Y || !sameVecBits(p.Data[j].X, ref.Data[j].X) {
						t.Fatalf("%s %s: party %d sample %d differs from the cloning shift's", spec.Name, what, p.ID, j)
					}
				}
				all = append(all, p.Data...)
			}
			checkNoSharedBacking(t, spec.Name+" "+what, all)
		}

		full, err := Build(s, scale)
		if err != nil {
			t.Fatal(err)
		}
		same("Build", full.Parties)
		var withTest []dataset.Sample
		for _, p := range full.Parties {
			withTest = append(withTest, p.Data...)
		}
		checkNoSharedBacking(t, spec.Name+" Build with its test set", append(withTest, full.Config.Test...))

		var shards []*fl.Party
		for _, rg := range [][2]int{{0, 9}, {9, scale.Parties}} {
			shard, _, err := BuildShard(context.Background(), s, scale, rg[0], rg[1])
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, shard...)
		}
		same("BuildShard", shards)
	}
}

// TestPackVectors: whatever the range, its k-th sample in party order ends
// in the train set's k-th vector, holding the values it was dealt.
func TestPackVectors(t *testing.T) {
	t.Parallel()
	spec := dataset.ECG().WithSizes(300, 10)
	for _, rg := range [][2]int{{0, 12}, {3, 8}, {11, 12}, {5, 5}} {
		train, _, err := dataset.Generate(spec, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		part, err := partition.Dirichlet(train, 12, 0.3, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		parties := fl.PartyData(train, part, rg[0], rg[1])
		var want []dataset.Sample
		for _, p := range parties {
			for _, s := range p.Data {
				want = append(want, dataset.Sample{X: s.X.Clone(), Y: s.Y})
			}
		}
		packVectors(train, part.Parties[rg[0]:rg[1]], parties)
		k := 0
		for _, p := range parties {
			for _, s := range p.Data {
				if unsafe.SliceData(s.X) != unsafe.SliceData(train.Samples[k].X) {
					t.Fatalf("range %v: sample %d is not in the train set's vector %d", rg, k, k)
				}
				if s.Y != want[k].Y || !sameVecBits(s.X, want[k].X) {
					t.Fatalf("range %v: sample %d changed while packed", rg, k)
				}
				k++
			}
		}
	}
}

// BenchmarkBuild times one job's build before its first round — data,
// feature shift, partition, parties, devices, selector — at two job shapes:
// the benchmark's 20k-party buffered Oort fleet (fleet_async), and a 60-party
// FLIPS ECG job, the most common kind in server_mixed's windows.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  SimulationConfig
	}{
		{"fleet-20k", SimulationConfig{
			Dataset: "mit-bih-ecg", Strategy: "oort", Aggregation: "buffered",
			DeviceProfile: "lognormal", Availability: "churn",
			Parties: 20000, Rounds: 10000, PartyFraction: 0.0016, Shards: 64, Seed: 7,
		}},
		{"server-60", SimulationConfig{
			Dataset: "mit-bih-ecg", Strategy: "flips", StragglerRate: 0.1,
			Parties: 60, Rounds: 100, Seed: 7,
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			setting, scale, err := bc.cfg.Resolve()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(setting, scale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildStopsWhenCancelled cancels builds from outside. A build whose
// context is already done stops before its first stage. A 2,000-party FLIPS
// ECG job — its Davies-Bouldin sweep is ~2,500 K-Means fits and seconds long
// — cancelled 100 ms in stops at the sweep's next fit, and the cell returns
// the context's error, wrapped.
func TestBuildStopsWhenCancelled(t *testing.T) {
	t.Parallel()
	setting, scale, err := SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "flips", Rounds: 20, Parties: 2000, Seed: 1}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(done, setting, scale); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "before generate") {
		t.Fatalf("build under a done context: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var cancelled time.Time
	timer := time.AfterFunc(100*time.Millisecond, func() {
		cancelled = time.Now()
		cancel()
	})
	defer timer.Stop()
	start := time.Now()
	_, _, err = RunSettingClusters(ctx, setting, scale, func(fl.RoundStats) { t.Error("a round ran after the build was cancelled") }, nil, nil)
	end := time.Now()
	if !errors.Is(err, context.Canceled) || err == context.Canceled {
		t.Fatalf("cancelled job returned %v, want context.Canceled wrapped", err)
	}
	// One fit at this size takes milliseconds (the largest k about 20 ms on
	// a 2-core box); the bound leaves room for a loaded or race-checked run
	// and stays far below the sweep's seconds.
	if lag := end.Sub(cancelled); lag > time.Second {
		t.Fatalf("the build ran %v past its cancel (%v in all)", lag, end.Sub(start))
	}
}
