package fl

import (
	"testing"

	"flips/internal/model"
)

// BenchmarkEngineRounds measures the FL engine's round loop at bench scale:
// 24 parties, 8 rounds, 8 parties/round, LogReg, sequential workers (so the
// number is raw single-core round throughput, not parallel speedup). The
// rounds/sec metric is the engine-level line in BENCH_3.json.
func BenchmarkEngineRounds(b *testing.B) {
	parties, test, spec := buildTestJob(b, 42, 24, 0.4)
	cfg := Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       NewFedYogi(),
		Selector:        &rotatingSelector{n: len(parties)},
		Rounds:          8,
		PartiesPerRound: 8,
		SGD:             model.SGDConfig{LearningRate: 0.05, BatchSize: 16, LocalEpochs: 1},
		EvalEvery:       4,
		Parallelism:     1,
		Seed:            42,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.History) == 0 {
			b.Fatal("no history")
		}
	}
	b.ReportMetric(float64(cfg.Rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
}

// BenchmarkEngineAsync measures the event core's buffered (FedBuff-style)
// path at the same bench scale as BenchmarkEngineRounds: 24 parties, 8
// aggregation steps of K=4 arrivals with 8 parties in flight, sequential
// workers. The arrivals/sec metric counts trained updates flowing through
// the event queue per second — the async engine's throughput line in
// BENCH_4.json.
func BenchmarkEngineAsync(b *testing.B) {
	const bufferK = 4
	parties, test, spec := buildTestJob(b, 42, 24, 0.4)
	cfg := Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       NewFedYogi(),
		Selector:        &rotatingSelector{n: len(parties)},
		Rounds:          8,
		PartiesPerRound: 8,
		SGD:             model.SGDConfig{LearningRate: 0.05, BatchSize: 16, LocalEpochs: 1},
		EvalEvery:       4,
		Parallelism:     1,
		Aggregation:     Buffered{K: bufferK},
		Seed:            42,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var arrivals int
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.History) == 0 {
			b.Fatal("no history")
		}
		arrivals += bufferK * cfg.Rounds // K arrivals folded per aggregation step
	}
	b.ReportMetric(float64(cfg.Rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
	b.ReportMetric(float64(arrivals)/b.Elapsed().Seconds(), "arrivals/sec")
}

// BenchmarkEngineSharded measures the engine at fleet scale: buffered
// aggregation (K=8, 16 in flight) over synthetic 10k- and 100k-party fleets
// at 64 shards, sequential workers. Party construction happens outside the
// timer; the measured loop is pure engine — selection over the full
// population, dispatch, the event queue and the fold. The ratchet
// (CI bench-alloc-smoke) pins allocs/op so per-party O(population) work
// cannot silently creep back into the cycle path; rounds/sec and
// arrivals/sec are the fleet-scale throughput lines in BENCH_5.json.
func BenchmarkEngineSharded(b *testing.B) {
	for _, tc := range []struct {
		name    string
		parties int
	}{
		{name: "10k", parties: 10_000},
		{name: "100k", parties: 100_000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := fleetConfig(b, tc.parties, 64, 8)
			k := cfg.Aggregation.(Buffered).K
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.History) == 0 {
					b.Fatal("no history")
				}
			}
			b.ReportMetric(float64(cfg.Rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
			b.ReportMetric(float64(k*cfg.Rounds)*float64(b.N)/b.Elapsed().Seconds(), "arrivals/sec")
		})
	}
}
