package flips

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"flips/internal/dist"
	"flips/internal/experiment"
	"flips/internal/fl"
)

// DistWorkerBuilder returns the dist.Builder a flipsd shard-worker process
// serves jobs with: the job spec is the SimulationConfig JSON of one repeat
// (DistRunner.Run), decoded and validated like any other submission — a spec
// the job server would have refused draws an error frame, not a build — and
// the worker rebuilds its assigned [lo, hi) party range of exactly the
// coordinator's fleet from it (experiment.BuildShard is Build's data path over
// a range, deterministic in (setting, scale)); the fleet-wide work only the
// coordinator reads — latencies, label distributions, devices, the selector —
// is never done.
func DistWorkerBuilder() dist.Builder {
	return func(spec []byte, lo, hi int) (dist.JobSetup, error) {
		cfg, err := DecodeSimulationConfig(bytes.NewReader(spec))
		if err != nil {
			return dist.JobSetup{}, err
		}
		setting, scale, err := cfg.resolve()
		if err != nil {
			return dist.JobSetup{}, err
		}
		parties, factory, err := experiment.BuildShard(setting, scale, lo, hi)
		if err != nil {
			return dist.JobSetup{}, err
		}
		return dist.JobSetup{Parties: parties, Factory: factory}, nil
	}
}

// DistRunner runs simulation jobs with local training distributed across the
// coordinator's shard-worker processes. Its Run method matches the job
// server's runner signature, so flipsd swaps it in for the in-process path
// when workers are configured; results are byte-identical either way (see
// DESIGN.md, "Distributed aggregation").
type DistRunner struct {
	// Coord is the listening worker coordinator.
	Coord *dist.Coordinator
	// Workers is how many shard slots each job partitions its party space
	// across (clamped to the party count per job).
	Workers int

	mu     sync.Mutex
	jobSeq uint64
	jobs   map[*distJob]struct{}
	recent []*distJob
}

type distJob struct {
	id    uint64
	job   *dist.Job
	final []dist.WorkerStat
}

// retainedJobStats bounds how many finished jobs keep their final slot
// snapshot visible in WorkerStats — sized so a metrics scrape after a short
// job still sees its per-worker series.
const retainedJobStats = 4

// Run executes one job over the worker fleet: the in-process run path with
// every repeat's local training attached to its own dist.Job. Each repeat's
// party space is split into Workers contiguous shard ranges, each assigned to
// a claimed worker along with the job description carrying that repeat's
// seed; the coordinator keeps every other stage of the round — device
// simulation, chaos, privacy, folds, server optimization, evaluation — and the
// across-repeat reduction, so the result is byte-identical to the in-process
// engine at any worker count.
func (r *DistRunner) Run(cfg SimulationConfig, onRound func(RoundPoint)) (*SimulationResult, error) {
	if r.Coord == nil || r.Workers <= 0 {
		return nil, fmt.Errorf("flips: distributed runner needs a coordinator and a positive worker count")
	}
	return runSimulation(cfg, onRound, func(built *experiment.BuildResult) (fl.ShardTransport, func(), error) {
		repeat := cfg
		repeat.Seed = built.Config.Seed
		spec, err := json.Marshal(repeat)
		if err != nil {
			return nil, nil, fmt.Errorf("flips: encode job spec: %w", err)
		}
		job, err := dist.NewJob(r.Coord, spec, len(built.Parties), r.Workers)
		if err != nil {
			return nil, nil, err
		}
		handle := r.track(job)
		return job, func() {
			r.untrack(handle)
			job.Close()
		}, nil
	})
}

// WorkerStats snapshots every active job's shard slots, tagged with a stable
// per-runner job sequence number, plus the final snapshots of the last few
// finished jobs — so a metrics scrape right after a short job still sees its
// per-worker series. The job server surfaces this on /metrics.
func (r *DistRunner) WorkerStats() map[uint64][]dist.WorkerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[uint64][]dist.WorkerStat, len(r.jobs)+len(r.recent))
	for _, h := range r.recent {
		out[h.id] = h.final
	}
	for h := range r.jobs {
		out[h.id] = h.job.Stats()
	}
	return out
}

func (r *DistRunner) track(job *dist.Job) *distJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jobs == nil {
		r.jobs = make(map[*distJob]struct{})
	}
	r.jobSeq++
	h := &distJob{id: r.jobSeq, job: job}
	r.jobs[h] = struct{}{}
	return h
}

// untrack moves a finishing job into the bounded recent ring, snapshotting
// its slots while the workers are still attached.
func (r *DistRunner) untrack(h *distJob) {
	h.final = h.job.Stats()
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.jobs, h)
	r.recent = append(r.recent, h)
	if len(r.recent) > retainedJobStats {
		r.recent = r.recent[len(r.recent)-retainedJobStats:]
	}
}
