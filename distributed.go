package flips

import (
	"context"
	"fmt"
	"sync"

	"flips/internal/dist"
	"flips/internal/experiment"
)

// DistWorkerBuilder returns the dist.Builder a flipsd shard-worker process
// serves jobs with: it decodes the repeat's SimulationConfig JSON exactly as
// POST /jobs does and builds the worker's [lo, hi) party range of the
// coordinator's fleet (experiment.DistWorkerBuilder, the one builder).
func DistWorkerBuilder() dist.Builder { return experiment.DistWorkerBuilder() }

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
// seed, and the workers build their ranges while the coordinator builds the
// repeat's fleet. The coordinator keeps every other stage of the round —
// device simulation, chaos, privacy, folds, server optimization, evaluation —
// and the across-repeat reduction, so the result is byte-identical to the
// in-process engine at any worker count. Once ctx is done the job stops
// before its next round and returns ctx's error, wrapped.
func (r *DistRunner) Run(ctx context.Context, cfg SimulationConfig, onRound func(RoundPoint)) (*SimulationResult, error) {
	if r.Coord == nil || r.Workers <= 0 {
		return nil, fmt.Errorf("flips: distributed runner needs a coordinator and a positive worker count")
	}
	return runSimulation(ctx, cfg, onRound, experiment.AttachDist(r.Coord, cfg, r.Workers, r.track))
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

// track registers a job's slots for WorkerStats and returns the untrack to
// run before the job closes.
func (r *DistRunner) track(job *dist.Job) (untrack func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jobs == nil {
		r.jobs = make(map[*distJob]struct{})
	}
	r.jobSeq++
	h := &distJob{id: r.jobSeq, job: job}
	r.jobs[h] = struct{}{}
	return func() { r.untrack(h) }
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
