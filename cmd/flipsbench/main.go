// Command flipsbench regenerates the FLIPS paper's evaluation artifacts:
// Tables 1–24, Figures 2 and 5–13, and the §5.1 TEE-overhead measurement.
//
// Usage:
//
//	flipsbench -exp table1,table2          # specific tables
//	flipsbench -exp fig5,fig13             # specific figures
//	flipsbench -exp het                    # device-heterogeneity time-to-accuracy sweep
//	flipsbench -exp async                  # aggregation-mode (sync/buffered/semisync) sweep
//	flipsbench -exp async -trace t.csv     # ... replaying a real-world availability trace
//	flipsbench -exp chaos                  # fault-matrix sweep (outages, surges, byzantine × folds)
//	flipsbench -exp chaos -chaos-matrix m.json  # ... with a custom declarative fault matrix
//	flipsbench -exp privacy                # privacy-ladder sweep (clip, masking, masking+DP)
//	flipsbench -exp tournament             # every registered selector ranked across fleet regimes
//	flipsbench -exp tournament -selector random,oort  # ... a chosen subset
//	flipsbench -exp tee                    # TEE clustering: cluster counts (timings on stderr)
//	flipsbench -exp scale                  # fleet-scale sweep (1k/10k/100k parties × 1/64 shards)
//	flipsbench -exp scale -selector flips  # ... under a chosen selector
//	flipsbench -exp dist                   # multi-process aggregation sweep (subprocess shard workers)
//	flipsbench -exp all-tables             # every table (12 grids)
//	flipsbench -exp all-figures            # every figure
//	flipsbench -exp all                    # everything
//	flipsbench -scale paper -exp table1    # full 200-party/400-round scale
//	flipsbench -seed 7 -exp fig2           # change the master seed
//
// Every experiment is an entry of internal/experiment's registry; -exp is a
// lookup into it, and a flag no selected experiment consumes (-trace without
// async, -selector without tournament or scale, ...) is an error.
// A scale or dist cell is a job as flipsd runs one (an ECG FedAvg
// SimulationConfig, buffered, 8 steps, 32 in flight), and a dist worker
// (-dist-worker-connect) serves its JSON with flipsd -worker's builder.
//
// Artifacts go to stdout and are a pure function of (flags, seed): two runs,
// at any -parallel, print the same bytes. Banners, per-cell progress and
// everything measured on the host (rounds/sec, heap, wire bytes, TEE
// timings) go to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"flips/internal/chaos"
	"flips/internal/device"
	"flips/internal/dist"
	"flips/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "flipsbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flipsbench", flag.ContinueOnError)
	exps := fs.String("exp", "all", "comma-separated experiments: "+experiment.Usage())
	selector := fs.String("selector", "", "comma-separated selector registry names: the tournament's competitors (default: every registered selector); a single name picks the scale sweep's strategy")
	tracePath := fs.String("trace", "", "CSV/JSON device availability trace replayed by the async sweep (one row of 0/1 slots per device, mapped onto parties by ID)")
	chaosMatrix := fs.String("chaos-matrix", "", "JSON fault-matrix file for the chaos sweep (fault arms × folds × strategies; default: built-in matrix)")
	scaleName := fs.String("scale", "laptop", "experiment scale: laptop or paper")
	seed := fs.Uint64("seed", 1, "master random seed")
	par := fs.Int("parallel", 0, "worker-pool width for grid cells, repeats, local training and eval shards (0 = GOMAXPROCS, 1 = sequential; results are identical at every width)")
	scaleParties := fs.String("scale-parties", "", "comma-separated population sizes for the scale and dist sweeps (defaults 1000,10000,100000 / 10000,100000)")
	distWorkerCounts := fs.String("dist-workers", "", "comma-separated shard-worker process counts for the dist sweep (default 1,2,4,8; the in-process baseline always runs)")
	distWorkerConnect := fs.String("dist-worker-connect", "", "internal: run as a dist-sweep shard worker against this coordinator address (the re-exec entry point; serves flipsd -worker's builder)")
	quiet := fs.Bool("q", false, "suppress per-cell progress")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (after GC) to this file at exit")
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *distWorkerConnect != "" {
		// Subprocess mode: serve shard-training waves for a dist-sweep
		// coordinator until it sends the shutdown frame, with the one
		// worker builder `flipsd -worker` serves.
		return dist.RunWorker(*distWorkerConnect, dist.WorkerOptions{
			Builder:     experiment.DistWorkerBuilder(),
			Parallelism: *par,
		})
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "flipsbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // report steady-state live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "flipsbench: memprofile:", err)
			}
		}()
	}

	opts := experiment.Options{
		Seed:      *seed,
		Selectors: parseSelectors(*selector),
		Spawn:     subprocessWorkers(stderr),
		Log:       func(msg string) { fmt.Fprintln(stderr, msg) },
	}
	if !*quiet {
		opts.Progress = func(msg string) { fmt.Fprintln(stderr, "  "+msg) }
	}
	if *selector != "" && len(opts.Selectors) == 0 {
		return fmt.Errorf("-selector: no selector names given")
	}
	switch *scaleName {
	case "laptop":
		opts.Scale = experiment.LaptopScale()
	case "paper":
		opts.Scale = experiment.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (laptop or paper)", *scaleName)
	}
	opts.Scale.Parallelism = *par

	var err error
	if *tracePath != "" {
		if opts.Trace, err = device.LoadTraceFile(*tracePath); err != nil {
			return err
		}
	}
	if *chaosMatrix != "" {
		if opts.Matrix, err = chaos.LoadMatrixFile(*chaosMatrix); err != nil {
			return err
		}
	}
	if opts.Parties, err = parseIntList(*scaleParties); err != nil {
		return fmt.Errorf("-scale-parties: %w", err)
	}
	if opts.Workers, err = parseIntList(*distWorkerCounts); err != nil {
		return fmt.Errorf("-dist-workers: %w", err)
	}
	// Run checks the rest before spending any compute: experiment and
	// selector names against their registries, and every input given above
	// against what the selected experiments consume.
	return experiment.Run(stdout, *exps, opts)
}

// subprocessWorkers re-execs this binary as shard-worker processes — the
// honest coordinator-heap measurement, since training then allocates in the
// workers. Stop kills any worker the coordinator's shutdown frame has not
// already released.
func subprocessWorkers(stderr io.Writer) experiment.WorkerSpawner {
	return func(addr string, n int) (func(), error) {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("locate own binary for worker re-exec: %w", err)
		}
		cmds := make([]*exec.Cmd, 0, n)
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "-dist-worker-connect", addr)
			cmd.Stderr = stderr
			if err := cmd.Start(); err != nil {
				for _, c := range cmds {
					_ = c.Process.Kill()
					_ = c.Wait()
				}
				return nil, fmt.Errorf("start worker %d: %w", i, err)
			}
			cmds = append(cmds, cmd)
		}
		return func() {
			for _, c := range cmds {
				done := make(chan struct{})
				go func(c *exec.Cmd) { _ = c.Wait(); close(done) }(c)
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					_ = c.Process.Kill()
					<-done
				}
			}
		}, nil
	}
}

// parseSelectors splits a comma-separated selector list ("" -> nil, meaning
// every registrant); experiment.Run checks the names against the registry.
func parseSelectors(spec string) []string {
	var out []string
	for _, f := range strings.Split(spec, ",") {
		if name := strings.TrimSpace(f); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// parseIntList parses a comma-separated list of positive ints ("" -> nil).
func parseIntList(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("population size %d must be positive", n)
		}
		out = append(out, n)
	}
	return out, nil
}
