package fl

import (
	"encoding/json"
	"fmt"
	"testing"

	"flips/internal/model"
)

// UnmarshalCheckpoint parses what Checkpoint.Marshal serialized.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("fl: checkpoint decode: %w", err)
	}
	return &c, nil
}

// checkpointedConfig builds a deterministic job with checkpointing enabled.
func checkpointedConfig(t *testing.T, sink func(*Checkpoint)) Config {
	t.Helper()
	parties, test, spec := buildTestJob(t, 20, 12, 0.4)
	return Config{
		Parties:         parties,
		Test:            test.Samples,
		NumClasses:      len(spec.LabelNames),
		Factory:         model.LogRegFactory(spec.Dim, len(spec.LabelNames)),
		Optimizer:       NewFedYogi(),
		Selector:        &fixedSelector{ids: []int{0, 1, 2, 3, 4}},
		Rounds:          10,
		PartiesPerRound: 5,
		StragglerRate:   0.2,
		LRDecayEvery:    3,
		LRDecayFactor:   0.5,
		TargetAccuracy:  0.5,
		CheckpointEvery: 5,
		CheckpointSink:  sink,
		Seed:            77,
	}
}

// TestResumeReproducesUninterruptedRun is the §7 fault-tolerance contract:
// resuming from a mid-job checkpoint yields bit-identical final parameters
// and metrics to the uninterrupted run.
func TestResumeReproducesUninterruptedRun(t *testing.T) {
	var cps []*Checkpoint
	full, err := Run(checkpointedConfig(t, func(cp *Checkpoint) { cps = append(cps, cp) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 2 { // rounds 5 and 10
		t.Fatalf("emitted %d checkpoints, want 2", len(cps))
	}
	if cps[0].Round != 5 || cps[1].Round != 10 {
		t.Fatalf("checkpoint rounds %d, %d", cps[0].Round, cps[1].Round)
	}

	// Serialize/deserialize the mid-job checkpoint like a real recovery
	// from an object store would.
	blob, err := cps[0].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}

	resumedCfg := checkpointedConfig(t, nil)
	resumedCfg.CheckpointEvery = 0
	resumedCfg.Resume = restored
	resumed, err := Run(resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.FinalParams) != len(full.FinalParams) {
		t.Fatal("param length mismatch")
	}
	for i := range full.FinalParams {
		if resumed.FinalParams[i] != full.FinalParams[i] {
			t.Fatalf("resumed params diverge at %d: %v vs %v", i, resumed.FinalParams[i], full.FinalParams[i])
		}
	}
	if resumed.PeakAccuracy != full.PeakAccuracy {
		t.Fatalf("peaks differ: %v vs %v", resumed.PeakAccuracy, full.PeakAccuracy)
	}
	if resumed.TotalCommBytes != full.TotalCommBytes {
		t.Fatalf("comm totals differ: %d vs %d", resumed.TotalCommBytes, full.TotalCommBytes)
	}
	if resumed.RoundsToTarget != full.RoundsToTarget {
		t.Fatalf("rounds-to-target differ: %d vs %d", resumed.RoundsToTarget, full.RoundsToTarget)
	}
}

func TestResumeValidation(t *testing.T) {
	var cps []*Checkpoint
	if _, err := Run(checkpointedConfig(t, func(cp *Checkpoint) { cps = append(cps, cp) })); err != nil {
		t.Fatal(err)
	}
	cp := cps[0]

	cases := []struct {
		name   string
		mutate func(*Config, *Checkpoint)
	}{
		{"wrong seed", func(c *Config, p *Checkpoint) { c.Seed = 999 }},
		{"wrong optimizer", func(c *Config, p *Checkpoint) { c.Optimizer = &FedAvg{} }},
		{"round beyond budget", func(c *Config, p *Checkpoint) { p.Round = 99 }},
		{"param mismatch", func(c *Config, p *Checkpoint) { p.GlobalParams = p.GlobalParams[:3] }},
		{"bad lr", func(c *Config, p *Checkpoint) { p.LearningRate = 0 }},
	}
	for _, tc := range cases {
		cfg := checkpointedConfig(t, nil)
		cfg.CheckpointEvery = 0
		cpCopy := *cp
		cpCopy.GlobalParams = append([]float64(nil), cp.GlobalParams...)
		tc.mutate(&cfg, &cpCopy)
		cfg.Resume = &cpCopy
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected resume rejection", tc.name)
		}
	}
}

func TestCheckpointJSONRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Round:                 7,
		GlobalParams:          []float64{1.5, -2.25},
		OptimizerName:         "fedyogi",
		OptimizerMoment:       []float64{0.1, 0.2},
		OptimizerSecondMoment: []float64{0.3, 0.4},
		LearningRate:          0.05,
		TotalCommBytes:        12345,
		PeakAccuracy:          0.81,
		RoundsToTarget:        -1,
		Seed:                  42,
	}
	blob, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 7 || got.GlobalParams[1] != -2.25 || got.OptimizerSecondMoment[1] != 0.4 ||
		got.Seed != 42 || got.RoundsToTarget != -1 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if _, err := UnmarshalCheckpoint([]byte("not-json")); err == nil {
		t.Fatal("malformed checkpoint accepted")
	}
}

func TestAdaptiveStateRoundTrip(t *testing.T) {
	opt := NewFedYogi()
	if m, v := opt.State(); m != nil || v != nil {
		t.Fatal("fresh optimizer should have nil state")
	}
	global := make([]float64, 3)
	opt.Apply(global, []float64{1, 2, 3})
	m, v := opt.State()
	if m == nil || v == nil {
		t.Fatal("applied optimizer should expose state")
	}
	clone := NewFedYogi()
	clone.SetState(m, v)
	g1 := []float64{0, 0, 0}
	g2 := []float64{0, 0, 0}
	opt.Apply(g1, []float64{1, 1, 1})
	clone.Apply(g2, []float64{1, 1, 1})
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("restored optimizer diverges at %d", i)
		}
	}
}
