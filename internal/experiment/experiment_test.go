package experiment

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"flips/internal/chaos"
	"flips/internal/dataset"
	"flips/internal/fl"
	"flips/internal/selection"
)

// tinyScale keeps unit tests fast while exercising every code path.
func tinyScale() Scale {
	return Scale{Parties: 24, Rounds: 12, TrainSize: 1200, TestSize: 300, Repeats: 1, EvalEvery: 3}
}

// runSetting runs one cell in-process without a round hook.
func runSetting(setting Setting, scale Scale) (*fl.Result, error) {
	res, _, err := RunSettingClusters(context.Background(), setting, scale, nil, nil)
	return res, err
}

// tinySession is a registry session at tinyScale, for building one figure or
// grid without rendering it.
func tinySession(seed uint64) *session {
	return &session{Options: Options{Scale: tinyScale(), Seed: seed}, cells: map[cellKey]Cell{}}
}

func TestTableSpecsEnumerate24(t *testing.T) {
	t.Parallel()
	specs := TableSpecs()
	if len(specs) != 24 {
		t.Fatalf("enumerated %d tables", len(specs))
	}
	seen := map[int]bool{}
	for _, s := range specs {
		if s.ID < 1 || s.ID > 24 || seen[s.ID] {
			t.Fatalf("bad table id %d", s.ID)
		}
		seen[s.ID] = true
	}
	// Spot-check the paper's assignments (table N is specs[N-1]).
	t1 := specs[0]
	if t1.Dataset.Name != "mit-bih-ecg" || t1.Algorithm != AlgoFedYogi || t1.Metric != MetricRounds {
		t.Fatalf("table 1 = %+v", t1)
	}
	t8 := specs[7]
	if t8.Dataset.Name != "fashion-mnist" || t8.Algorithm != AlgoFedYogi || t8.Metric != MetricPeak {
		t.Fatalf("table 8 = %+v", t8)
	}
	t9 := specs[8]
	if t9.Dataset.Name != "mit-bih-ecg" || t9.Algorithm != AlgoFedProx {
		t.Fatalf("table 9 = %+v", t9)
	}
	t24 := specs[23]
	if t24.Dataset.Name != "fashion-mnist" || t24.Algorithm != AlgoFedAvg || t24.Metric != MetricPeak {
		t.Fatalf("table 24 = %+v", t24)
	}
	for i, s := range specs {
		if s.ID != i+1 {
			t.Fatalf("specs[%d] is table %d: the enumeration is not in paper order", i, s.ID)
		}
	}
	if _, err := Expand("table25"); err == nil {
		t.Fatal("table 25 should not exist")
	}
}

func TestBuildValidation(t *testing.T) {
	t.Parallel()
	s := Setting{Spec: dataset.ECG(), Algorithm: AlgoFedAvg, Alpha: 0.3, PartyFraction: 0, Strategy: StrategyRandom, Seed: 1}
	if _, err := Build(s, tinyScale()); err == nil {
		t.Fatal("expected error for zero party fraction")
	}
	s.PartyFraction = 0.2
	s.Strategy = "nope"
	if _, err := Build(s, tinyScale()); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
	s.Strategy = StrategyRandom
	s.Algorithm = "nope"
	if _, err := Build(s, tinyScale()); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestBuildAllStrategiesAndAlgorithms(t *testing.T) {
	t.Parallel()
	for _, strategy := range selection.Names() {
		for _, algo := range []string{AlgoFedAvg, AlgoFedProx, AlgoFedYogi, AlgoFedAdam, AlgoFedAdagrad, AlgoFedDyn, AlgoFedSGD} {
			s := Setting{
				Spec: dataset.ECG(), Algorithm: algo, Alpha: 0.3,
				PartyFraction: 0.2, Strategy: strategy, Seed: 3,
			}
			built, err := Build(s, tinyScale())
			if err != nil {
				t.Fatalf("%s/%s: %v", strategy, algo, err)
			}
			if built.Selector.Name() == "" {
				t.Fatalf("%s/%s: empty selector name", strategy, algo)
			}
			if strategy == StrategyFLIPS && len(built.Clusters) == 0 {
				t.Fatalf("FLIPS build missing clusters")
			}
		}
	}
}

// TestStrategyListsMatchRegistry pins the accepted-name lists to the
// selection registry: the paper's five are a prefix of the extended list,
// and every Strategy* constant is registered — a renamed or dropped
// registrant breaks here, not at a user's CLI flag.
func TestStrategyListsMatchRegistry(t *testing.T) {
	t.Parallel()
	ext := selection.Names()
	for i, name := range AllStrategies() {
		if i >= len(ext) || ext[i] != name {
			t.Fatalf("AllStrategies()[%d]=%q is not a prefix of selection.Names() %v", i, name, ext)
		}
	}
	registered := map[string]bool{}
	for _, name := range ext {
		registered[name] = true
	}
	for _, name := range []string{
		StrategyRandom, StrategyFLIPS, StrategyOort, StrategyGradClus, StrategyTiFL,
	} {
		if !registered[name] {
			t.Fatalf("strategy constant %q is not in the selection registry", name)
		}
	}
}

// TestCandidateFactorValidation pins the power-of-choice knob: 0 defaults,
// >= 1 passes through, (0, 1) and negatives are rejected at build time.
func TestCandidateFactorValidation(t *testing.T) {
	t.Parallel()
	s := Setting{
		Spec: dataset.ECG(), Algorithm: AlgoFedAvg, Alpha: 0.3,
		PartyFraction: 0.2, Strategy: "power-of-choice", Seed: 7,
	}
	for _, ok := range []float64{0, 1, 1.5, 4} {
		s.CandidateFactor = ok
		if _, err := Build(s, tinyScale()); err != nil {
			t.Fatalf("candidate factor %v rejected: %v", ok, err)
		}
	}
	for _, bad := range []float64{-1, 0.5, 0.99} {
		s.CandidateFactor = bad
		if _, err := Build(s, tinyScale()); err == nil {
			t.Fatalf("candidate factor %v accepted", bad)
		}
	}
}

// TestCandidateFactorDefaultBitIdentical is the satellite's byte-for-byte
// guarantee: CandidateFactor 0 and the historical hardwired 2 produce
// identical runs.
func TestCandidateFactorDefaultBitIdentical(t *testing.T) {
	t.Parallel()
	run := func(factor float64) float64 {
		res, err := runSetting(Setting{
			Spec: dataset.ECG(), Algorithm: AlgoFedAvg, Alpha: 0.6,
			PartyFraction: 0.25, Strategy: "power-of-choice",
			CandidateFactor: factor, TargetAccuracy: 0.9, Seed: 13,
		}, tinyScale())
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakAccuracy
	}
	if a, b := run(0), run(2); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("default factor diverged from explicit 2: %v vs %v", a, b)
	}
	if a, b := run(0), run(3); math.Float64bits(a) == math.Float64bits(b) {
		t.Fatalf("factor 3 produced the same run as the default — knob not threaded (%v)", a)
	}
}

func TestRunSettingAveragesRepeats(t *testing.T) {
	t.Parallel()
	scale := tinyScale()
	scale.Repeats = 2
	res, err := runSetting(Setting{
		Spec: dataset.ECG(), Algorithm: AlgoFedAvg, Alpha: 0.6,
		PartyFraction: 0.25, Strategy: StrategyRandom, TargetAccuracy: 0.9, Seed: 5,
	}, scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakAccuracy <= 0 || res.PeakAccuracy > 1 {
		t.Fatalf("peak %v", res.PeakAccuracy)
	}
	// Target 0.9 unreachable in 12 tiny rounds: must report -1 (">R").
	if res.RoundsToTarget != -1 {
		t.Fatalf("rounds-to-target %d for unreachable target", res.RoundsToTarget)
	}
}

func TestRunGridShapeAndRender(t *testing.T) {
	t.Parallel()
	grid, err := tinySession(7).grid(dataset.FashionMNIST(), AlgoFedAvg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Rows) != 4 {
		t.Fatalf("grid has %d rows, want 4", len(grid.Rows))
	}
	cols := map[string]bool{}
	for _, col := range grid.Cols {
		cols[col.Labels[0]] = true
	}
	if len(grid.Cols) != 11 || len(cols) != 11 { // 5 + 3 + 3
		t.Fatalf("grid has %d columns (%d distinct), want 11", len(grid.Cols), len(cols))
	}
	if !cols["FLIPS@10%"] {
		t.Fatal("missing FLIPS@10% column")
	}
	if cols["GradCls@10%"] {
		t.Fatal("GradClus should not appear in straggler columns")
	}
	for r := range grid.Rows {
		if len(grid.Cells[r]) != 11 {
			t.Fatalf("row %d has %d cells, want 11", r, len(grid.Cells[r]))
		}
	}
	rounds := TableSpecs()[22]
	if rounds.Dataset.Name != "fashion-mnist" || rounds.Algorithm != AlgoFedAvg || rounds.Metric != MetricRounds {
		t.Fatalf("table 23 = %+v, want the fashion-mnist fedavg rounds table", rounds)
	}
	var buf bytes.Buffer
	RenderTable(&buf, grid, rounds)
	out := buf.String()
	if !strings.Contains(out, "Table 23") || !strings.Contains(out, "FLIPS@0%") {
		t.Fatalf("render missing headers:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+1+4 { // title + threshold + header + 4 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
}

func TestFigure2Elbow(t *testing.T) {
	t.Parallel()
	fig, err := figure2(tinySession(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 1 || len(fig.Panels[0].Series) != 1 {
		t.Fatal("fig2 structure")
	}
	s := fig.Panels[0].Series[0]
	if len(s.Rounds) < 3 || s.Rounds[0] != 2 {
		t.Fatalf("fig2 k-axis %v", s.Rounds)
	}
	for _, dbi := range s.Accuracy {
		if dbi < 0 {
			t.Fatalf("negative DBI %v", dbi)
		}
	}
}

func TestConvergenceFigureStructure(t *testing.T) {
	t.Parallel()
	fig, err := convergenceFigure("fig11", dataset.FashionMNIST(), false)(tinySession(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 4 { // (α=0.3, 0.6) × (15%, 20%)
		t.Fatalf("fig11 has %d panels", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.Series) != 5 {
			t.Fatalf("panel %s has %d series, want 5 strategies", p.Name, len(p.Series))
		}
	}
}

func TestStragglerFigureStructure(t *testing.T) {
	t.Parallel()
	fig, err := convergenceFigure("fig12", dataset.FashionMNIST(), true)(tinySession(13))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig.Panels {
		if len(p.Series) != 6 { // 3 strategies × 2 straggler rates
			t.Fatalf("panel %s has %d series, want 6", p.Name, len(p.Series))
		}
		for _, s := range p.Series {
			if !strings.Contains(s.Label, "stragglers") {
				t.Fatalf("series label %q missing straggler annotation", s.Label)
			}
		}
	}
}

func TestFigure13Structure(t *testing.T) {
	t.Parallel()
	fig, err := figure13(tinySession(17))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 2 {
		t.Fatalf("fig13 has %d panels", len(fig.Panels))
	}
	if !strings.Contains(fig.Panels[0].Name, "arrhythmia") {
		t.Fatalf("panel 0 = %s", fig.Panels[0].Name)
	}
	if !strings.Contains(fig.Panels[1].Name, "bcc") {
		t.Fatalf("panel 1 = %s", fig.Panels[1].Name)
	}
}

func TestUnknownFigure(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	err := Run(&buf, "fig99", Options{Scale: tinyScale(), Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "fig2..fig13") {
		t.Fatalf("unknown figure: err = %v, want one listing what is valid", err)
	}
}

func TestFigureRender(t *testing.T) {
	t.Parallel()
	fig, err := figure2(tinySession(19))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	if !strings.Contains(buf.String(), "davies-bouldin") {
		t.Fatal("render missing series header")
	}
}

func TestTargetsAndRounds(t *testing.T) {
	t.Parallel()
	if TargetFor(dataset.ECG()) != 0.65 || TargetFor(dataset.FEMNIST()) != 0.80 {
		t.Fatal("targets changed unexpectedly")
	}
	scale := Scale{Rounds: 100}
	if RoundsFor(dataset.ECG(), scale) != 100 {
		t.Fatal("ECG rounds")
	}
	if RoundsFor(dataset.FEMNIST(), scale) != 50 {
		t.Fatal("FEMNIST rounds")
	}
}

// TestHeadlineShape is the repository's core scientific regression: on the
// heavily non-IID ECG workload with FedYogi, FLIPS must converge to the
// target in fewer rounds than Random selection and reach at least as high a
// peak (paper Tables 1–2).
func TestHeadlineShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("headline shape check is a multi-second FL run")
	}
	scale := LaptopScale()
	scale.Rounds = 60
	run := func(strategy string) (int, float64) {
		res, err := runSetting(Setting{
			Spec: dataset.ECG(), Algorithm: AlgoFedYogi, Alpha: 0.3,
			PartyFraction: 0.2, Strategy: strategy,
			TargetAccuracy: TargetFor(dataset.ECG()), Seed: 1,
		}, scale)
		if err != nil {
			t.Fatal(err)
		}
		rtt := res.RoundsToTarget
		if rtt < 0 {
			rtt = scale.Rounds + 1
		}
		return rtt, res.PeakAccuracy
	}
	flipsRTT, flipsPeak := run(StrategyFLIPS)
	randomRTT, randomPeak := run(StrategyRandom)
	if flipsRTT >= randomRTT {
		t.Fatalf("FLIPS rtt %d not better than Random rtt %d", flipsRTT, randomRTT)
	}
	if flipsPeak < randomPeak-0.01 {
		t.Fatalf("FLIPS peak %v below Random peak %v", flipsPeak, randomPeak)
	}
}

// TestBuildRangeMatchesFullBuild pins the shard-rebuild contract of the paper
// fleets: BuildShard over any range yields exactly the (ID, Data) of
// Build(...).Parties[lo:hi] — for a feature-shifted MLP dataset, and with a
// label-flip scenario poisoning half the fleet — and nothing else of a party.
func TestBuildRangeMatchesFullBuild(t *testing.T) {
	t.Parallel()
	flips := chaos.Spec{Seed: 5, FaultFraction: 0.5, Fault: chaos.FaultLabelFlip}
	for name, s := range map[string]Setting{
		"feature-shifted": {Spec: dataset.FEMNIST(), Algorithm: AlgoFedYogi, Alpha: 0.3,
			PartyFraction: 0.2, Strategy: StrategyFLIPS, Seed: 23},
		"label-flipped": {Spec: dataset.ECG(), Algorithm: AlgoFedAvg, Alpha: 0.3,
			PartyFraction: 0.2, Strategy: StrategyRandom, Chaos: &flips, Seed: 23},
	} {
		full, err := Build(s, tinyScale())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := len(full.Parties)
		for _, rg := range [][2]int{{0, n}, {0, 7}, {7, 19}, {19, n}, {5, 5}} {
			lo, hi := rg[0], rg[1]
			shard, factory, err := BuildShard(context.Background(), s, tinyScale(), lo, hi)
			if err != nil {
				t.Fatalf("%s [%d,%d): %v", name, lo, hi, err)
			}
			if factory == nil || len(shard) != hi-lo {
				t.Fatalf("%s [%d,%d): %d parties, factory nil=%v", name, lo, hi, len(shard), factory == nil)
			}
			for k, p := range shard {
				want := full.Parties[lo+k]
				if p.ID != want.ID || len(p.Data) != len(want.Data) {
					t.Fatalf("%s [%d,%d): party %d has ID %d and %d samples, want %d and %d",
						name, lo, hi, lo+k, p.ID, len(p.Data), want.ID, len(want.Data))
				}
				if p.LabelDist != nil || p.Latency != 0 || p.Device != nil {
					t.Fatalf("%s: shard party %d carries more than its data: %+v", name, p.ID, p)
				}
				for j := range p.Data {
					if p.Data[j].Y != want.Data[j].Y || !sameVecBits(p.Data[j].X, want.Data[j].X) {
						t.Fatalf("%s [%d,%d): party %d sample %d differs from the full build's", name, lo, hi, p.ID, j)
					}
				}
			}
		}
		for _, rg := range [][2]int{{-1, 3}, {4, 2}, {0, n + 1}} {
			if _, _, err := BuildShard(context.Background(), s, tinyScale(), rg[0], rg[1]); err == nil {
				t.Fatalf("%s: range [%d,%d) accepted", name, rg[0], rg[1])
			}
		}
	}
}
