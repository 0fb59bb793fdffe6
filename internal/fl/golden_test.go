package fl

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The golden-run regression suite pins two small fixed-seed end-to-end runs
// — one on the legacy straggler model, one on the device model — as
// byte-exact testdata files. Any engine refactor that shifts a single bit of
// any RoundStats field, the final parameters or the summary metrics fails
// here, instead of silently changing every table in the repository.
//
// Regenerate after an *intentional* semantic change with:
//
//	go test ./internal/fl -run TestGolden -update

var update = flag.Bool("update", false, "rewrite golden testdata files")

// goldenRound mirrors RoundStats with every float64 stored as its IEEE-754
// bit pattern: JSON cannot hold NaN (PerLabel uses NaN for absent labels),
// and decimal round-trips would defeat the byte-exact contract.
type goldenRound struct {
	Round     int      `json:"round"`
	Accuracy  uint64   `json:"accuracyBits"`
	PerLabel  []uint64 `json:"perLabelBits"`
	Invited   int      `json:"invited"`
	Completed int      `json:"completed"`
	Rejected  int      `json:"rejected,omitempty"`
	MaskAbort bool     `json:"maskAborted,omitempty"`
	CommBytes int64    `json:"commBytes"`
	MeanLoss  uint64   `json:"meanLossBits"`
	RoundTime uint64   `json:"roundTimeBits"`
	SimTime   uint64   `json:"simTimeBits"`
}

type goldenRun struct {
	History        []goldenRound `json:"history"`
	PeakAccuracy   uint64        `json:"peakAccuracyBits"`
	RoundsToTarget int           `json:"roundsToTarget"`
	SimTime        uint64        `json:"simTimeBits"`
	TimeToTarget   uint64        `json:"timeToTargetBits"`
	TotalCommBytes int64         `json:"totalCommBytes"`
	FinalParams    []uint64      `json:"finalParamsBits"`
}

func toGolden(res *Result) *goldenRun {
	g := &goldenRun{
		PeakAccuracy:   math.Float64bits(res.PeakAccuracy),
		RoundsToTarget: res.RoundsToTarget,
		SimTime:        math.Float64bits(res.SimTime),
		TimeToTarget:   math.Float64bits(res.TimeToTarget),
		TotalCommBytes: res.TotalCommBytes,
	}
	for _, h := range res.History {
		gr := goldenRound{
			Round:     h.Round,
			Accuracy:  math.Float64bits(h.Accuracy),
			Invited:   h.Invited,
			Completed: h.Completed,
			Rejected:  h.Rejected,
			MaskAbort: h.MaskAborted,
			CommBytes: h.CommBytes,
			MeanLoss:  math.Float64bits(h.MeanLoss),
			RoundTime: math.Float64bits(h.RoundTime),
			SimTime:   math.Float64bits(h.SimTime),
		}
		for _, v := range h.PerLabel {
			gr.PerLabel = append(gr.PerLabel, math.Float64bits(v))
		}
		g.History = append(g.History, gr)
	}
	for _, v := range res.FinalParams {
		g.FinalParams = append(g.FinalParams, math.Float64bits(v))
	}
	return g
}

// The golden job constructors live in goldens.go (non-test) so
// internal/dist can replay the same pinned trajectories across the wire;
// these wrappers adapt their error returns for test use.
func goldenFromBuilder(t *testing.T, mk func() (Config, error)) Config {
	t.Helper()
	cfg, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func goldenLegacyConfig(t *testing.T) Config { return goldenFromBuilder(t, GoldenLegacyConfig) }

func goldenDeviceConfig(t *testing.T) Config { return goldenFromBuilder(t, GoldenDeviceConfig) }

func checkGolden(t *testing.T, name string, cfg Config) {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := toGolden(res)
	path := filepath.Join("testdata", name)

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	if len(got.History) != len(want.History) {
		t.Fatalf("history length %d, golden %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		w, g := want.History[i], got.History[i]
		if w.Round != g.Round || w.Invited != g.Invited || w.Completed != g.Completed || w.Rejected != g.Rejected || w.MaskAbort != g.MaskAbort || w.CommBytes != g.CommBytes {
			t.Errorf("round %d counters diverge from golden: got %+v want %+v", w.Round, g, w)
		}
		if w.Accuracy != g.Accuracy || w.MeanLoss != g.MeanLoss || w.RoundTime != g.RoundTime || w.SimTime != g.SimTime {
			t.Errorf("round %d float bits diverge from golden: got %+v want %+v", w.Round, g, w)
		}
		if len(w.PerLabel) != len(g.PerLabel) {
			t.Fatalf("round %d per-label lengths %d vs %d", w.Round, len(g.PerLabel), len(w.PerLabel))
		}
		for c := range w.PerLabel {
			if w.PerLabel[c] != g.PerLabel[c] {
				t.Errorf("round %d label %d recall bits %#x, golden %#x", w.Round, c, g.PerLabel[c], w.PerLabel[c])
			}
		}
	}
	if got.PeakAccuracy != want.PeakAccuracy || got.RoundsToTarget != want.RoundsToTarget ||
		got.SimTime != want.SimTime || got.TimeToTarget != want.TimeToTarget ||
		got.TotalCommBytes != want.TotalCommBytes {
		t.Errorf("summary diverges from golden:\ngot  peak=%#x rtt=%d sim=%#x ttt=%#x comm=%d\nwant peak=%#x rtt=%d sim=%#x ttt=%#x comm=%d",
			got.PeakAccuracy, got.RoundsToTarget, got.SimTime, got.TimeToTarget, got.TotalCommBytes,
			want.PeakAccuracy, want.RoundsToTarget, want.SimTime, want.TimeToTarget, want.TotalCommBytes)
	}
	if len(got.FinalParams) != len(want.FinalParams) {
		t.Fatalf("param lengths %d vs %d", len(got.FinalParams), len(want.FinalParams))
	}
	for i := range want.FinalParams {
		if got.FinalParams[i] != want.FinalParams[i] {
			t.Fatalf("param %d bits %#x, golden %#x", i, got.FinalParams[i], want.FinalParams[i])
		}
	}
}

func goldenAsyncConfig(t *testing.T) Config { return goldenFromBuilder(t, GoldenAsyncConfig) }

func goldenSemiSyncConfig(t *testing.T) Config { return goldenFromBuilder(t, GoldenSemiSyncConfig) }

func goldenChaosConfig(t *testing.T) Config { return goldenFromBuilder(t, GoldenChaosConfig) }

func goldenPrivacyConfig(t *testing.T) Config { return goldenFromBuilder(t, GoldenPrivacyConfig) }

// goldenConfigs enumerates every pinned trajectory by testdata file name.
func goldenConfigs() map[string]func(*testing.T) Config {
	out := make(map[string]func(*testing.T) Config)
	for name, mk := range GoldenConfigs() {
		mk := mk
		out[name] = func(t *testing.T) Config { return goldenFromBuilder(t, mk) }
	}
	return out
}

func TestGoldenLegacyRun(t *testing.T) {
	t.Parallel()
	checkGolden(t, "golden_legacy.json", goldenLegacyConfig(t))
}

func TestGoldenSemiSyncRun(t *testing.T) {
	t.Parallel()
	checkGolden(t, "golden_semisync.json", goldenSemiSyncConfig(t))
}

// TestGoldenRunsAreShardInvariant pins Shards as a label: every golden
// trajectory must reproduce byte-for-byte at Shards 1 through 8 (sequential
// and parallel), because no state is stored and no fold is split by shard.
// Skipped under -update so the
// golden files are only ever regenerated from the canonical unsharded runs.
func TestGoldenRunsAreShardInvariant(t *testing.T) {
	t.Parallel()
	if *update {
		t.Skip("golden files regenerate from the unsharded configuration")
	}
	for name, mk := range goldenConfigs() {
		for _, shards := range []int{1, 2, 3, 5, 8} {
			cfg := mk(t)
			cfg.Shards = shards
			cfg.Parallelism = 1 + shards%3
			checkGolden(t, name, cfg)
		}
	}
}

func TestGoldenAsyncRun(t *testing.T) {
	t.Parallel()
	checkGolden(t, "golden_async.json", goldenAsyncConfig(t))
}

func TestGoldenDeviceRun(t *testing.T) {
	t.Parallel()
	checkGolden(t, "golden_device.json", goldenDeviceConfig(t))
}

func TestGoldenChaosRun(t *testing.T) {
	t.Parallel()
	checkGolden(t, "golden_chaos.json", goldenChaosConfig(t))
}

func TestGoldenPrivacyRun(t *testing.T) {
	t.Parallel()
	checkGolden(t, "golden_privacy.json", goldenPrivacyConfig(t))
}

// TestGoldenRunsAreParallelismInvariant ties the golden pins to the
// determinism contract: the parallel engine must reproduce the committed
// sequential goldens at width 8 too.
func TestGoldenRunsAreParallelismInvariant(t *testing.T) {
	t.Parallel()
	for _, mk := range []func(*testing.T) Config{goldenLegacyConfig, goldenDeviceConfig, goldenAsyncConfig, goldenSemiSyncConfig, goldenChaosConfig, goldenPrivacyConfig} {
		seq := mk(t)
		seq.Parallelism = 1
		par := mk(t)
		par.Parallelism = 8
		a, err := Run(seq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(par)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, a, b)
	}
}
