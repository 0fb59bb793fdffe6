package experiment

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"flips/internal/dataset"
	"flips/internal/dist"
	"flips/internal/fl"
	"flips/internal/tensor"
)

// The fleet sweep exercises the simulator itself instead of the science: one
// buffered run per (population, shard count) cell — a 100k-party run is one
// cell — in-process and, when worker counts are given, again with local
// training distributed across that many shard-worker processes. Every
// distributed run must reproduce its in-process sibling's final parameters
// bit for bit: the sweep prices the multi-process seam, never a different
// computation. The registry exposes it twice: `scale` (populations × shard
// counts, in-process) and `dist` (populations × worker counts at one shard
// count). What either renders is a function of (flags, seed) alone, like
// every other artifact; what depends on the host — steps and arrivals per
// second, heap allocated and held, bytes on the wire, and where the run's
// wall-clock went (fl.Phases) — goes to the progress line.

// FleetSweep configures RunFleet.
type FleetSweep struct {
	// Parties lists the population sizes and Shards the aggregation shard
	// counts crossed with each.
	Parties, Shards []int
	// Workers lists the shard-worker process counts every (population,
	// shards) cell is repeated at, after its in-process run. Empty sweeps
	// in-process only.
	Workers []int
	// Rounds is the aggregation-step budget per cell and PartiesPerRound the
	// concurrency M of the buffered pipeline.
	Rounds, PartiesPerRound int
	// Strategy picks the selector by registry name; any registered selector
	// is accepted — see selection.Names(). Most selectors' per-round cost
	// stays O(cohort + pool) at fleet scale, not O(population); TiFL's is
	// O(parties/tiers) per step, one rescan of each tier a round reported to.
	Strategy string
	// Seed fixes the run; Parallelism bounds the engine worker pool (0 =
	// GOMAXPROCS).
	Seed        uint64
	Parallelism int
}

// FleetCell is one finished run; Workers == 0 is in-process, and a cell with
// Workers > 0 exists only if it matched that baseline bit for bit.
type FleetCell struct {
	Parties, Shards, Workers int
	// ShardsTouched is the final evaluated round's shard-locality metric.
	ShardsTouched int
}

// fleetCell is the job one sweep cell runs, as a user would submit it: ECG,
// FedAvg, buffered aggregation with sweep.PartiesPerRound in flight, and the
// product's own fleet — Dirichlet-dealt samples, lognormal latencies, counted
// label distributions. A dist worker rebuilds its range of it from the same
// JSON a `flipsd -worker` is sent.
func fleetCell(sweep FleetSweep, parties, shards int) SimulationConfig {
	perRound := min(sweep.PartiesPerRound, parties)
	fraction := float64(perRound) / float64(parties)
	if int(fraction*float64(parties)) < perRound {
		// The cohort is fraction × parties, truncated: step past a quotient
		// that rounded down.
		fraction = math.Nextafter(fraction, 1)
	}
	return SimulationConfig{
		Dataset:       dataset.ECG().Name,
		Algorithm:     AlgoFedAvg,
		Strategy:      sweep.Strategy,
		Aggregation:   "buffered",
		Rounds:        sweep.Rounds,
		Parties:       parties,
		PartyFraction: fraction,
		Shards:        shards,
		Parallelism:   sweep.Parallelism,
		Seed:          sweep.Seed,
	}
}

// WorkerSpawner launches n shard-worker processes against a coordinator
// address and returns a stop function that reclaims them. The flipsbench CLI
// re-execs itself as subprocess workers — the honest measurement, since the
// coordinator's heap then excludes training — while tests loop goroutine
// workers back in-process.
type WorkerSpawner func(addr string, n int) (stop func(), err error)

// inProcessWorkers returns a spawner that serves workers on goroutines inside
// the coordinator process. Byte-identical to real processes (the protocol is
// the same), but the coordinator heap on the progress line then includes
// worker training.
func inProcessWorkers(parallelism int) WorkerSpawner {
	return func(addr string, n int) (func(), error) {
		for i := 0; i < n; i++ {
			go func() {
				_ = dist.RunWorker(addr, dist.WorkerOptions{Builder: DistWorkerBuilder(), Parallelism: parallelism})
			}()
		}
		// Workers exit on the coordinator's shutdown frames; nothing to stop.
		return func() {}, nil
	}
}

// startWorkers boots a coordinator and has spawn launch n workers against
// it; stop tears both down.
func startWorkers(spawn WorkerSpawner, n int) (coord *dist.Coordinator, stop func(), err error) {
	coord = dist.NewCoordinator()
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	stopWorkers, err := spawn(addr, n)
	if err != nil {
		coord.Close()
		return nil, nil, fmt.Errorf("spawn: %w", err)
	}
	stop = func() { coord.Close(); stopWorkers() }
	if err := coord.AwaitWorkers(n, 60*time.Second); err != nil {
		stop()
		return nil, nil, err
	}
	return coord, stop, nil
}

// RunFleet executes the sweep: every (population, shards) cell in-process,
// then once per worker count, failing on a distributed run that diverges
// from its in-process sibling. spawn launches the workers (nil = goroutines
// in-process). Cells run sequentially — each is timed for its progress line
// (progress may be nil), so sharing cores between cells would corrupt the
// numbers. The time covers the cell's build and its run; the worker
// handshakes are set-up and are not counted.
func RunFleet(sweep FleetSweep, spawn WorkerSpawner, progress func(string)) ([]FleetCell, error) {
	if spawn == nil {
		spawn = inProcessWorkers(sweep.Parallelism)
	}
	var cells []FleetCell
	for _, parties := range sweep.Parties {
		for _, shards := range sweep.Shards {
			var baseline tensor.Vec
			for _, workers := range append([]int{0}, sweep.Workers...) {
				what := fmt.Sprintf("fleet cell %dp/%ds/%dw", parties, shards, workers)
				cfg := fleetCell(sweep, parties, shards)
				setting, scale, err := cfg.Resolve()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", what, err)
				}
				var attach Attach
				var wire int64
				stop := func() {}
				if workers > 0 {
					var coord *dist.Coordinator
					if coord, stop, err = startWorkers(spawn, workers); err != nil {
						return nil, fmt.Errorf("%s: %w", what, err)
					}
					attach = AttachDist(coord, cfg, workers, func(job *dist.Job) func() {
						return func() {
							for _, st := range job.Stats() {
								wire += st.BytesIn + st.BytesOut
							}
						}
					})
				}
				// The cell's job has one repeat, so one probe serves it.
				var phases fl.Phases
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				start := time.Now()
				res, _, err := RunSettingClusters(context.Background(), setting, scale, nil, &phases, attach)
				elapsed := time.Since(start).Seconds()
				runtime.ReadMemStats(&after)
				stop()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", what, err)
				}
				if workers == 0 {
					baseline = res.FinalParams
				} else if !sameVecBits(baseline, res.FinalParams) {
					return nil, fmt.Errorf("%s: final parameters diverged from the in-process baseline", what)
				}
				cell := FleetCell{Parties: parties, Shards: shards, Workers: workers}
				if len(res.History) > 0 {
					cell.ShardsTouched = res.History[len(res.History)-1].ShardsTouched
				}
				cells = append(cells, cell)
				if progress != nil {
					steps := float64(cfg.Rounds) / elapsed
					arrivals := max(1, min(sweep.PartiesPerRound, parties)/2)
					progress(fmt.Sprintf("%dp x %ds x %dw -> %.2f s to build and run, %.1f rounds/sec, %.0f arrivals/sec, %.1f MB allocated, %.1f MB peak heap, %d KB on wire; run phases: %v",
						parties, shards, workers, elapsed, steps, steps*float64(arrivals),
						float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), float64(after.HeapSys)/(1<<20), wire>>10, &phases))
				}
			}
		}
	}
	return cells, nil
}

func sameVecBits(a, b tensor.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// fleetEntry registers one face of the fleet sweep: 8 buffered steps with 32
// in flight over o.Parties (else parties) × shards;
// a face that consumes them takes o.Selectors' one strategy (else random)
// and o.Workers (else 1, 2, 4, 8).
func fleetEntry(e Experiment, parties, shards []int, render func(io.Writer, FleetSweep, []FleetCell)) Experiment {
	if e.Consumes&InSelectors != 0 {
		e.check = func(o Options) error {
			if len(o.Selectors) > 1 {
				return fmt.Errorf("experiment: %s sweeps one selector, got %d (%s)", e.Name, len(o.Selectors), strings.Join(o.Selectors, ", "))
			}
			return nil
		}
	}
	e.run = func(w io.Writer, s *session) error {
		sweep := FleetSweep{Parties: parties, Shards: shards, Rounds: 8, PartiesPerRound: 32,
			Strategy: StrategyRandom, Seed: s.Seed, Parallelism: s.Scale.Parallelism}
		if len(s.Parties) > 0 {
			sweep.Parties = s.Parties
		}
		if e.Consumes&InSelectors != 0 && len(s.Selectors) > 0 {
			sweep.Strategy = s.Selectors[0]
		}
		if e.Consumes&InWorkers != 0 {
			if sweep.Workers = s.Workers; len(sweep.Workers) == 0 {
				sweep.Workers = []int{1, 2, 4, 8}
			}
		}
		cells, err := RunFleet(sweep, s.Spawn, s.Progress)
		if err != nil {
			return err
		}
		render(w, sweep, cells)
		return nil
	}
	return e
}

func renderScale(w io.Writer, sweep FleetSweep, cells []FleetCell) {
	fmt.Fprintf(w, "Fleet-scale sweep: buffered aggregation, %d steps, %d in flight, strategy: %s\n",
		sweep.Rounds, sweep.PartiesPerRound, sweep.Strategy)
	fmt.Fprintln(w, "parties\tshards\tshards touched")
	for _, c := range cells {
		fmt.Fprintf(w, "%d\t%d\t%d\n", c.Parties, c.Shards, c.ShardsTouched)
	}
}

// renderDist prints each cell's verdict; RunFleet returns no cell that
// diverged from its in-process baseline.
func renderDist(w io.Writer, sweep FleetSweep, cells []FleetCell) {
	fmt.Fprintf(w, "Distributed-aggregation sweep: buffered, %d steps, %d in flight, %d shards; workers=0 is in-process\n",
		sweep.Rounds, sweep.PartiesPerRound, sweep.Shards[0])
	fmt.Fprintln(w, "parties\tworkers\tidentical")
	for _, c := range cells {
		fmt.Fprintf(w, "%d\t%d\ttrue\n", c.Parties, c.Workers)
	}
}
