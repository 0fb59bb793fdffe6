// bench_test.go regenerates every evaluation artifact of the FLIPS paper as
// a Go benchmark: one benchmark per table (1–24), one per figure (2, 5–13),
// the §5.1 TEE-overhead measurement, and the ablation studies DESIGN.md
// calls out. Benchmarks run a reduced "bench scale" (30 parties, 24 rounds)
// so `go test -bench=. -benchmem` finishes in minutes; `cmd/flipsbench`
// regenerates the same artifacts at laptop or paper scale.
//
// Convergence results are reported as custom benchmark metrics:
// rounds-to-target (the paper's odd tables) and peak balanced accuracy in
// percent (the even tables).
package flips

import (
	"io"
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

// benchmarkTable regenerates one paper table per iteration: the full
// (α × party% × straggler-column) grid for the table's dataset/algorithm,
// rendered to io.Discard.
func benchmarkTable(b *testing.B, tableID int) {
	spec := experiment.TableSpecs()[tableID-1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		grid, err := experiment.RunGrid(spec.Dataset, spec.Algorithm, benchScale(), benchSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
		experiment.RenderTable(io.Discard, grid, spec)
		// Surface the headline cell (α=0.3, 20%, no stragglers, FLIPS — row 0,
		// the first FLIPS column) as benchmark metrics so regressions in the
		// science are visible in bench output, not only in timing.
		for c, col := range grid.Cols {
			if col.Name != experiment.StrategyFLIPS {
				continue
			}
			cell := grid.Cells[0][c]
			if spec.Metric == experiment.MetricRounds {
				rtt := float64(cell.RoundsToTarget)
				if cell.RoundsToTarget < 0 {
					rtt = float64(grid.Rounds + 1)
				}
				b.ReportMetric(rtt, "flips-rounds")
			} else {
				b.ReportMetric(100*cell.PeakAccuracy, "flips-peak-%")
			}
			break
		}
	}
}

func BenchmarkTable01(b *testing.B) { benchmarkTable(b, 1) }
func BenchmarkTable02(b *testing.B) { benchmarkTable(b, 2) }
func BenchmarkTable03(b *testing.B) { benchmarkTable(b, 3) }
func BenchmarkTable04(b *testing.B) { benchmarkTable(b, 4) }
func BenchmarkTable05(b *testing.B) { benchmarkTable(b, 5) }
func BenchmarkTable06(b *testing.B) { benchmarkTable(b, 6) }
func BenchmarkTable07(b *testing.B) { benchmarkTable(b, 7) }
func BenchmarkTable08(b *testing.B) { benchmarkTable(b, 8) }
func BenchmarkTable09(b *testing.B) { benchmarkTable(b, 9) }
func BenchmarkTable10(b *testing.B) { benchmarkTable(b, 10) }
func BenchmarkTable11(b *testing.B) { benchmarkTable(b, 11) }
func BenchmarkTable12(b *testing.B) { benchmarkTable(b, 12) }
func BenchmarkTable13(b *testing.B) { benchmarkTable(b, 13) }
func BenchmarkTable14(b *testing.B) { benchmarkTable(b, 14) }
func BenchmarkTable15(b *testing.B) { benchmarkTable(b, 15) }
func BenchmarkTable16(b *testing.B) { benchmarkTable(b, 16) }
func BenchmarkTable17(b *testing.B) { benchmarkTable(b, 17) }
func BenchmarkTable18(b *testing.B) { benchmarkTable(b, 18) }
func BenchmarkTable19(b *testing.B) { benchmarkTable(b, 19) }
func BenchmarkTable20(b *testing.B) { benchmarkTable(b, 20) }
func BenchmarkTable21(b *testing.B) { benchmarkTable(b, 21) }
func BenchmarkTable22(b *testing.B) { benchmarkTable(b, 22) }
func BenchmarkTable23(b *testing.B) { benchmarkTable(b, 23) }
func BenchmarkTable24(b *testing.B) { benchmarkTable(b, 24) }

func benchmarkFigure(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure(id, benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		fig.Render(io.Discard)
	}
}

func BenchmarkFigure02Elbow(b *testing.B)        { benchmarkFigure(b, "fig2") }
func BenchmarkFigure05ECG(b *testing.B)          { benchmarkFigure(b, "fig5") }
func BenchmarkFigure06ECGStrag(b *testing.B)     { benchmarkFigure(b, "fig6") }
func BenchmarkFigure07HAM(b *testing.B)          { benchmarkFigure(b, "fig7") }
func BenchmarkFigure08HAMStrag(b *testing.B)     { benchmarkFigure(b, "fig8") }
func BenchmarkFigure09FEMNIST(b *testing.B)      { benchmarkFigure(b, "fig9") }
func BenchmarkFigure10FEMNISTStrag(b *testing.B) { benchmarkFigure(b, "fig10") }
func BenchmarkFigure11Fashion(b *testing.B)      { benchmarkFigure(b, "fig11") }
func BenchmarkFigure12FashionStrag(b *testing.B) { benchmarkFigure(b, "fig12") }
func BenchmarkFigure13Underrep(b *testing.B)     { benchmarkFigure(b, "fig13") }

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
				m.Gradient(party.Data, g)
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
