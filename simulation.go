package flips

import (
	"context"
	"io"

	"flips/internal/experiment"
	"flips/internal/fl"
)

// SimulationConfig is one job description: the JSON object POST /jobs, a
// `flipsd -selftest` job file and a shard worker's assignment carry. It is
// declared, resolved and decoded in internal/experiment, beside the plan it
// resolves to; its fields are documented there.
type SimulationConfig = experiment.SimulationConfig

// RoundPoint is one evaluated round of a simulation, the engine's own value:
// the round hook, SimulationResult.History and the job server's stream all
// carry it, so a per-round field is declared once (fl.RoundStats documents
// each). PerLabel must be copied if a hook retains it.
type RoundPoint = fl.RoundStats

// SimulationResult summarizes a finished FL simulation.
type SimulationResult struct {
	History        []RoundPoint
	PeakAccuracy   float64
	RoundsToTarget int // -1 if the target was not reached
	// TimeToTarget is the simulated seconds at which the target accuracy
	// was first reached (-1 if never) and SimTime the run's total simulated
	// wall-clock — the time-to-accuracy axis of the device model.
	TimeToTarget   float64
	SimTime        float64
	TargetAccuracy float64
	TotalCommBytes int64
	NumClusters    int // FLIPS strategy only; 0 otherwise
}

// DecodeSimulationConfig reads one job description strictly: unknown fields,
// trailing data and everything Validate refuses are errors.
func DecodeSimulationConfig(r io.Reader) (SimulationConfig, error) {
	return experiment.DecodeSimulationConfig(r)
}

// DecodeSimulationConfigFile is DecodeSimulationConfig over a job file.
func DecodeSimulationConfigFile(path string) (SimulationConfig, error) {
	return experiment.DecodeSimulationConfigFile(path)
}

// RunSimulation executes one FL job and returns its convergence history.
func RunSimulation(cfg SimulationConfig) (*SimulationResult, error) {
	return RunSimulationStream(context.Background(), cfg, nil)
}

// RunSimulationStream is RunSimulation with a context and a live per-round
// hook: onRound, when non-nil, receives every evaluated round as it
// completes — the streaming surface behind the job server's NDJSON round
// feed. The hook runs on the run's evaluator goroutine, in round order and
// never after this function returns; it should hand off quickly, and the
// PerLabel slice must be copied if retained. Once ctx is done the job stops
// before its next round and returns ctx's error, wrapped.
func RunSimulationStream(ctx context.Context, cfg SimulationConfig, onRound func(RoundPoint)) (*SimulationResult, error) {
	return runSimulation(ctx, cfg, onRound, nil)
}

// runSimulation is the one run path: in-process when attach is nil, with each
// repeat's local training on the transport attach returns when it is not
// (DistRunner.Run). Once ctx is done the job stops before its next round and
// returns ctx's error, wrapped; the rounds onRound received by then are the
// first rounds of the job that was not stopped.
func runSimulation(ctx context.Context, cfg SimulationConfig, onRound func(RoundPoint), attach experiment.Attach) (*SimulationResult, error) {
	setting, scale, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	res, clusters, err := experiment.RunSettingClusters(ctx, setting, scale, onRound, nil, attach)
	if err != nil {
		return nil, err
	}
	return &SimulationResult{
		History:        res.History,
		PeakAccuracy:   res.PeakAccuracy,
		RoundsToTarget: res.RoundsToTarget,
		TimeToTarget:   res.TimeToTarget,
		SimTime:        res.SimTime,
		TargetAccuracy: setting.TargetAccuracy,
		TotalCommBytes: res.TotalCommBytes,
		NumClusters:    len(clusters),
	}, nil
}
