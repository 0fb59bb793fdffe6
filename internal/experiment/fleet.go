package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"flips/internal/dataset"
	"flips/internal/dist"
	"flips/internal/fl"
	"flips/internal/model"
	"flips/internal/rng"
	"flips/internal/selection"
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
// second, heap allocated and held, bytes on the wire — goes to the progress
// line.

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
	// is accepted — see selection.Names(). Every selector has a fleet-scale
	// path above the 2048-party scale threshold, so per-round cost stays O(cohort +
	// pool), not O(population).
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

// fleetSamplesPerParty is the synthetic fleet's per-party data size.
const fleetSamplesPerParty = 4

// buildFleetRange materializes the parties with IDs in [lo, hi) of a
// synthetic fleet in O(hi−lo): a small shared sample pool dealt to parties in
// wrapped slices (the engine treats party data as read-only) and a
// deterministic latency spread with no RNG, so a 100k-party construction
// costs milliseconds, not a dataset generation. Party i is identical whatever
// range produces it, which is what lets distributed shard workers rebuild
// just their slice of the same fleet.
func buildFleetRange(lo, hi int, seed uint64) ([]*fl.Party, *dataset.Dataset, dataset.Spec, error) {
	spec := dataset.ECG().WithSizes(2048, 256)
	train, test, err := dataset.Generate(spec, rng.New(seed))
	if err != nil {
		return nil, nil, spec, err
	}
	out := make([]*fl.Party, hi-lo)
	n := len(train.Samples)
	for k := range out {
		i := lo + k
		data := make([]dataset.Sample, fleetSamplesPerParty)
		for j := range data {
			data[j] = train.Samples[(i*fleetSamplesPerParty+j)%n]
		}
		out[k] = &fl.Party{ID: i, Data: data, Latency: 0.5 + 0.1*float64(i%7)}
	}
	return out, test, spec, nil
}

// fleetCellConfig assembles the buffered engine job for one sweep cell.
func fleetCellConfig(sweep FleetSweep, parties, shards int) (fl.Config, error) {
	pool, test, spec, err := buildFleetRange(0, parties, sweep.Seed)
	if err != nil {
		return fl.Config{}, err
	}
	// Resolve the strategy through the selection registry. DataSizes stays
	// nil (the synthetic fleet is uniform), so the historical random/oort
	// cells keep their exact RNG streams.
	classes := len(spec.LabelNames)
	sel, _, err := selection.Build(sweep.Strategy, selection.BuildContext{
		NumParties: parties,
		ParamDim:   model.NewLogReg(spec.Dim, classes).NumParams(),
		RNG:        rng.New(sweep.Seed ^ 0x5CA1E),
		Latencies: func() []float64 {
			ls := make([]float64, parties)
			for i, p := range pool {
				ls[i] = p.Latency
			}
			return ls
		},
		LabelDists: func() []tensor.Vec { return fl.NormalizedLabelDists(pool) },
	})
	if err != nil {
		return fl.Config{}, fmt.Errorf("experiment: fleet sweep: %w", err)
	}
	perRound := min(sweep.PartiesPerRound, parties)
	return fl.Config{
		Parties:         pool,
		Test:            test.Samples,
		NumClasses:      classes,
		Factory:         model.LogRegFactory(spec.Dim, classes),
		Optimizer:       &fl.FedAvg{},
		Selector:        sel,
		Rounds:          sweep.Rounds,
		PartiesPerRound: perRound,
		SGD:             model.SGDConfig{LearningRate: 0.05, BatchSize: 4, LocalEpochs: 1},
		EvalEvery:       sweep.Rounds,
		Parallelism:     sweep.Parallelism,
		Shards:          shards,
		Aggregation:     fl.Buffered{K: max(1, perRound/2)},
		Seed:            sweep.Seed,
	}, nil
}

// fleetSpec is the job spec a shard worker rebuilds its slice of the fleet
// from — the arguments of buildFleetRange, which is deterministic in them.
type fleetSpec struct {
	Parties int
	Seed    uint64
}

// DistFleetBuilder returns the worker-side builder for the sweep's fleet
// specs: it regenerates the shared sample pool and materializes only the
// assigned [lo, hi) party range, so a worker's heap is proportional to its
// shard.
func DistFleetBuilder() dist.Builder {
	return func(spec []byte, lo, hi int) (dist.JobSetup, error) {
		var s fleetSpec
		if err := json.Unmarshal(spec, &s); err != nil {
			return dist.JobSetup{}, fmt.Errorf("experiment: decode fleet spec: %w", err)
		}
		if hi > s.Parties {
			return dist.JobSetup{}, fmt.Errorf("experiment: shard range [%d,%d) exceeds %d-party fleet", lo, hi, s.Parties)
		}
		parties, _, ds, err := buildFleetRange(lo, hi, s.Seed)
		if err != nil {
			return dist.JobSetup{}, err
		}
		return dist.JobSetup{
			Parties: parties,
			Factory: model.LogRegFactory(ds.Dim, len(ds.LabelNames)),
		}, nil
	}
}

// WorkerSpawner launches n shard-worker processes against a coordinator
// address and returns a stop function that reclaims them. The flipsbench CLI
// re-execs itself as subprocess workers — the honest measurement, since the
// coordinator's heap then excludes training — while tests loop goroutine
// workers back in-process.
type WorkerSpawner func(addr string, n int) (stop func(), err error)

// InProcessWorkers returns a spawner that serves workers on goroutines inside
// the coordinator process. Byte-identical to real processes (the protocol is
// the same), but the coordinator heap on the progress line then includes
// worker training.
func InProcessWorkers(parallelism int) WorkerSpawner {
	return func(addr string, n int) (func(), error) {
		for i := 0; i < n; i++ {
			go func() {
				_ = dist.RunWorker(addr, dist.WorkerOptions{Builder: DistFleetBuilder(), Parallelism: parallelism})
			}()
		}
		// Workers exit on the coordinator's shutdown frames; nothing to stop.
		return func() {}, nil
	}
}

// attachWorkers boots a coordinator, has spawn launch workers against it and
// opens the cell's job; release tears all three down.
func attachWorkers(spawn WorkerSpawner, workers, parties int, seed uint64) (job *dist.Job, release func(), err error) {
	coord := dist.NewCoordinator()
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	stop, err := spawn(addr, workers)
	if err != nil {
		coord.Close()
		return nil, nil, fmt.Errorf("spawn: %w", err)
	}
	teardown := func() { coord.Close(); stop() }
	if err := coord.AwaitWorkers(workers, 60*time.Second); err != nil {
		teardown()
		return nil, nil, err
	}
	spec, err := json.Marshal(fleetSpec{Parties: parties, Seed: seed})
	if err == nil {
		job, err = dist.NewJob(coord, spec, parties, workers)
	}
	if err != nil {
		teardown()
		return nil, nil, err
	}
	return job, func() { job.Close(); teardown() }, nil
}

// RunFleet executes the sweep: every (population, shards) cell in-process,
// then once per worker count, failing on a distributed run that diverges
// from its in-process sibling. spawn launches the workers (nil = goroutines
// in-process). Cells run sequentially — each is timed for its progress line
// (progress may be nil), so sharing cores between cells would corrupt the
// numbers. Only fl.Run is measured: the fleet and the worker handshakes are
// set-up, the engine + seam transient is the number that must stay flat as
// the fleet grows.
func RunFleet(sweep FleetSweep, spawn WorkerSpawner, progress func(string)) ([]FleetCell, error) {
	if spawn == nil {
		spawn = InProcessWorkers(sweep.Parallelism)
	}
	var cells []FleetCell
	for _, parties := range sweep.Parties {
		for _, shards := range sweep.Shards {
			var baseline tensor.Vec
			for _, workers := range append([]int{0}, sweep.Workers...) {
				what := fmt.Sprintf("fleet cell %dp/%ds/%dw", parties, shards, workers)
				cfg, err := fleetCellConfig(sweep, parties, shards)
				if err != nil {
					return nil, err
				}
				var job *dist.Job
				release := func() {}
				if workers > 0 {
					if job, release, err = attachWorkers(spawn, workers, parties, sweep.Seed); err != nil {
						return nil, fmt.Errorf("%s: %w", what, err)
					}
					cfg.Transport = job
				}
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				start := time.Now()
				res, err := fl.Run(cfg)
				elapsed := time.Since(start).Seconds()
				runtime.ReadMemStats(&after)
				var wire int64
				if job != nil {
					for _, st := range job.Stats() {
						wire += st.BytesIn + st.BytesOut
					}
				}
				release()
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
					progress(fmt.Sprintf("%dp x %ds x %dw -> %.0f rounds/sec, %.0f arrivals/sec, %.1f MB allocated, %.1f MB peak heap, %d KB on wire",
						parties, shards, workers, steps, steps*float64(cfg.Aggregation.(fl.Buffered).K),
						float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), float64(after.HeapSys)/(1<<20), wire>>10))
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
// in flight over o.Parties (else parties) × the -shards value (else shards);
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
		if s.Scale.Shards > 0 {
			sweep.Shards = []int{s.Scale.Shards}
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
