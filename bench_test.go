// bench_test.go holds the measurements that are not `flipsbench` artifacts:
// the §5.1 TEE-overhead measurement, the ablation studies DESIGN.md calls
// out and the fleet build. Benchmarks run a reduced "bench scale" (30
// parties, 24 rounds) so `go test -bench=. -benchmem` finishes in minutes;
// the paper's tables and figures are `flipsbench -exp tableN,figN`.
//
// Convergence results are reported as custom benchmark metrics:
// rounds-to-target and peak balanced accuracy in percent.
package flips

import (
	"testing"

	"flips/internal/cluster"
	"flips/internal/core"
	"flips/internal/dataset"
	"flips/internal/experiment"
	"flips/internal/fl"
	"flips/internal/model"
	"flips/internal/rng"
	"flips/internal/selection"
	"flips/internal/tensor"
)

const benchSeed = 1

func benchScale() experiment.Scale {
	return experiment.Scale{
		Parties: 30, Rounds: 24, TrainSize: 2400, TestSize: 400,
		Repeats: 1, EvalEvery: 6,
	}
}

// BenchmarkTEEClusteringOverhead reproduces §5.1: in-enclave vs plain
// clustering time, reported as a percentage metric.
func BenchmarkTEEClusteringOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTEEOverhead(benchScale(), 3, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverheadPct, "overhead-%")
	}
}

// runWithSelector runs the bench-scale ECG FedYogi job with a substituted
// selector and returns rounds-to-target (rounds budget+1 when missed) and
// peak accuracy.
func runWithSelector(b *testing.B, setting experiment.Setting, scale experiment.Scale, sel fl.Selector) (float64, float64) {
	b.Helper()
	built, err := experiment.Build(setting, scale)
	if err != nil {
		b.Fatal(err)
	}
	if sel != nil {
		built.Config.Selector = sel
	}
	res, err := fl.Run(built.Config)
	if err != nil {
		b.Fatal(err)
	}
	rtt := float64(res.RoundsToTarget)
	if res.RoundsToTarget < 0 {
		rtt = float64(scale.Rounds + 1)
	}
	return rtt, res.PeakAccuracy
}

func ecgSetting(stragglers float64) experiment.Setting {
	return experiment.Setting{
		Spec:           dataset.ECG(),
		Algorithm:      experiment.AlgoFedYogi,
		Alpha:          0.3,
		PartyFraction:  0.2,
		StragglerRate:  stragglers,
		Strategy:       experiment.StrategyFLIPS,
		TargetAccuracy: experiment.TargetFor(dataset.ECG()),
		Seed:           benchSeed,
	}
}

// ablationScale gives convergence room for the ablation comparisons.
func ablationScale() experiment.Scale {
	s := benchScale()
	s.Rounds = 60
	return s
}

// BenchmarkAblationClusterSampling compares FLIPS's equitable round-robin
// against size-proportional sampling from the same label clusters
// (DESIGN.md ablation 1).
func BenchmarkAblationClusterSampling(b *testing.B) {
	scale := ablationScale()
	b.Run("equitable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rtt, peak := runWithSelector(b, ecgSetting(0), scale, nil)
			b.ReportMetric(rtt, "rounds")
			b.ReportMetric(100*peak, "peak-%")
		}
	})
	b.Run("proportional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			built, err := experiment.Build(ecgSetting(0), scale)
			if err != nil {
				b.Fatal(err)
			}
			sel, err := selection.NewClusterProportional(built.Clusters, rng.New(benchSeed))
			if err != nil {
				b.Fatal(err)
			}
			rtt, peak := runWithSelector(b, ecgSetting(0), scale, sel)
			b.ReportMetric(rtt, "rounds")
			b.ReportMetric(100*peak, "peak-%")
		}
	})
}

// BenchmarkAblationFixedK compares the Davies-Bouldin elbow k against badly
// chosen fixed cluster counts (DESIGN.md ablation 2; paper §3.1's "when k is
// small… when k is large…").
func BenchmarkAblationFixedK(b *testing.B) {
	scale := ablationScale()
	runFixedK := func(b *testing.B, k int) {
		for i := 0; i < b.N; i++ {
			built, err := experiment.Build(ecgSetting(0), scale)
			if err != nil {
				b.Fatal(err)
			}
			lds := fl.NormalizedLabelDists(built.Parties)
			clusters, err := core.ClusterWithK(lds, k, rng.New(benchSeed))
			if err != nil {
				b.Fatal(err)
			}
			sel, err := core.NewSelector(clusters)
			if err != nil {
				b.Fatal(err)
			}
			rtt, peak := runWithSelector(b, ecgSetting(0), scale, sel)
			b.ReportMetric(rtt, "rounds")
			b.ReportMetric(100*peak, "peak-%")
		}
	}
	b.Run("elbow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rtt, peak := runWithSelector(b, ecgSetting(0), scale, nil)
			b.ReportMetric(rtt, "rounds")
			b.ReportMetric(100*peak, "peak-%")
		}
	})
	b.Run("k=2", func(b *testing.B) { runFixedK(b, 2) })
	b.Run("k=15", func(b *testing.B) { runFixedK(b, 15) })
}

// BenchmarkAblationOverprovision compares FLIPS's straggler-cluster-aware
// over-provisioning against uniform random replacement under 20% stragglers
// (DESIGN.md ablation 3).
func BenchmarkAblationOverprovision(b *testing.B) {
	scale := ablationScale()
	b.Run("cluster-aware", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rtt, peak := runWithSelector(b, ecgSetting(0.2), scale, nil)
			b.ReportMetric(rtt, "rounds")
			b.ReportMetric(100*peak, "peak-%")
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			built, err := experiment.Build(ecgSetting(0.2), scale)
			if err != nil {
				b.Fatal(err)
			}
			sel, err := core.NewSelector(built.Clusters)
			if err != nil {
				b.Fatal(err)
			}
			sel.SetRandomOverprovision(true, rng.New(benchSeed))
			rtt, peak := runWithSelector(b, ecgSetting(0.2), scale, sel)
			b.ReportMetric(rtt, "rounds")
			b.ReportMetric(100*peak, "peak-%")
		}
	})
}

// BenchmarkAblationClusterSignal isolates the clustering signal: the same
// equitable selection policy on label-distribution clusters vs clusters of
// the parties' true initial gradients (DESIGN.md ablation 4, the
// FLIPS-vs-GradClus comparison with selection policy held fixed).
func BenchmarkAblationClusterSignal(b *testing.B) {
	scale := ablationScale()
	b.Run("label-clusters", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rtt, peak := runWithSelector(b, ecgSetting(0), scale, nil)
			b.ReportMetric(rtt, "rounds")
			b.ReportMetric(100*peak, "peak-%")
		}
	})
	b.Run("gradient-clusters", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			built, err := experiment.Build(ecgSetting(0), scale)
			if err != nil {
				b.Fatal(err)
			}
			// True full-batch gradient of every party at the common initial
			// model — the best case for gradient clustering (no staleness,
			// no random placeholders).
			spec := dataset.ECG()
			m := model.NewLogReg(spec.Dim, len(spec.LabelNames))
			grads := make([]tensor.Vec, len(built.Parties))
			for pi, party := range built.Parties {
				g := tensor.NewVec(m.NumParams())
				m.LossGradient(party.Data, g)
				grads[pi] = g
			}
			k := len(built.Clusters) // same cluster count as the label path
			assign, err := cluster.Agglomerative(cluster.CosineDistanceMatrix(grads), k, cluster.AverageLinkage)
			if err != nil {
				b.Fatal(err)
			}
			gradClusters := make([][]int, k)
			for id, c := range assign {
				gradClusters[c] = append(gradClusters[c], id)
			}
			sel, err := core.NewSelector(gradClusters)
			if err != nil {
				b.Fatal(err)
			}
			rtt, peak := runWithSelector(b, ecgSetting(0), scale, sel)
			b.ReportMetric(rtt, "rounds")
			b.ReportMetric(100*peak, "peak-%")
		}
	})
}

// BenchmarkFleetBuild builds the benchmark's fleet job (buffered oort over a
// lognormal churn fleet) at 2k and 20k parties and reports ns/party: the
// per-job set-up FLIPS pays once in front of round 1. A build linear in the
// fleet keeps the two ns/party values close; a per-party rescan of the fleet
// anywhere in dataset → partition → parties → devices → selector shows up as
// their ratio.
func BenchmarkFleetBuild(b *testing.B) {
	for _, bc := range []struct {
		name    string
		parties int
	}{{"2k", 2000}, {"20k", 20000}} {
		b.Run(bc.name, func(b *testing.B) {
			setting, scale, err := fleetConfig(bc.parties).resolve()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Build(setting, scale); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.parties), "ns/party")
		})
	}
}
