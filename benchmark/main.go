// Command benchmark is the repository's one performance harness: five named
// workloads, each driven the way an operator drives flipsd — POST /jobs with a
// flips.SimulationConfig against an in-process server on a loopback listener,
// then GET /jobs/{id}/stream followed to the terminal event — timed on the
// client clock, output-checked, and (with -trace 1) decomposed layer by layer
// from spans and probes recorded in this directory's own files.
//
//	go run ./benchmark                      all five workloads, one JSON document
//	go run ./benchmark -trace 1             plus per-layer metrics and a span file
//	go run ./benchmark -aa                  the suite twice; fails if the two disagree
//	go run ./benchmark -workload fleet_async -seed 11 -seconds 20 -trace 0
//
// See README.md for the metric definitions and BENCHMARK.json (repo root) for
// the contract the CI driver runs this under.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"flips"
)

func main() {
	start := time.Now()
	if err := run(os.Args[1:], os.Stdout, os.Stderr, start); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	workloads []string
	seed      uint64
	seconds   float64
	trace     bool
	aa        bool
	scale     scale
	outDir    string
}

// Defaults: -seconds is what BENCHMARK.json's run_seconds hands the driver's
// runs; three ~6 s jobs fit.
const (
	defaultSeed    = 7
	defaultSeconds = 20
	// setup_s is the median of a run's set-ups: at least setupReps, and more
	// (up to setupMaxReps) while they have taken under setupBudget seconds in
	// all — a 15 ms set-up is too short to time three times and trust.
	setupReps    = 3
	setupMaxReps = 15
	setupBudget  = 1.0
	tracedMixed  = 12 // server_mixed jobs re-run traced
	// childEnv marks a process the suite runner started.
	childEnv = "FLIPS_BENCHMARK_CHILD"
)

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload, in this process (default: all five, each in a fresh child process)")
	seed := fs.Uint64("seed", defaultSeed, "drives every generator: job lists and per-job seeds")
	seconds := fs.Float64("seconds", defaultSeconds, "measurement budget per workload: passes repeat while the next one still fits")
	trace := fs.Int("trace", 0, "1 also runs the traced job and the layer probes, and reports the per-layer metrics")
	aa := fs.Bool("aa", false, "run the suite twice and fail if any end-to-end metric's two medians differ by more than its bound")
	scaleName := fs.String("scale", "full", "workload sizes: full (the benchmark) or smoke (toy sizes for tests)")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for the JSON report and span files")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	o := options{seed: *seed, seconds: *seconds, aa: *aa, outDir: *outDir}
	switch *trace {
	case 0, 1:
		o.trace = *trace == 1
	default:
		return options{}, fmt.Errorf("-trace takes 0 or 1, got %d", *trace)
	}
	var ok bool
	if o.scale, ok = scales[*scaleName]; !ok {
		return options{}, fmt.Errorf("unknown -scale %q (valid: full, smoke)", *scaleName)
	}
	if o.seconds <= 0 {
		return options{}, fmt.Errorf("-seconds must be positive")
	}
	o.workloads = workloadNames
	if *workload != "" {
		if _, ok := workloadWhy[*workload]; !ok {
			return options{}, fmt.Errorf("unknown workload %q (valid: %s)", *workload, strings.Join(workloadNames, ", "))
		}
		o.workloads = []string{*workload}
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer, processStart time.Time) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if len(o.workloads) == 1 && !o.aa {
		return runChild(o, stdout, stderr, processStart)
	}
	return runSuite(o, stdout, stderr)
}

// machine is the report header: enough to tell two documents' numbers apart.
type machine struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	OSArch     string  `json:"os_arch"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

// usableCPUs is the `nproc` the load shape is sized by: client tenants and
// server workers are each capped at it.
func usableCPUs() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

func describeMachine(stderr io.Writer) machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	if m.Commit == "unknown" {
		// `go run` does not stamp the binary; ask git, which is absent or
		// fails outside a work tree. Output waits for the process to end.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.Commit = strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			m.LoadAvg1, _ = strconv.ParseFloat(f[0], 64) // stays 0 when unparsable
		}
	}
	// A suite's children start right after one another: their load is the
	// suite's own, and the suite has already warned.
	if limit := 0.5 * float64(usableCPUs()); m.LoadAvg1 > limit && os.Getenv(childEnv) == "" {
		fmt.Fprintf(stderr, "benchmark: warning: 1-minute load average %.2f exceeds %.1f (0.5 x nproc); timings will be noisy\n", m.LoadAvg1, limit)
	}
	return m
}

// workloadReport is one workload's result.
type workloadReport struct {
	Workload  string    `json:"workload"`
	Why       string    `json:"why"`
	Seed      uint64    `json:"seed"`
	Scale     string    `json:"scale"`
	Traced    bool      `json:"traced"`
	Passes    int       `json:"passes"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Digest    string    `json:"digest"` // bit-exact hash of pass 0's round histories and results
	SpanFile  string    `json:"span_file,omitempty"`
	Metrics   metricSet `json:"metrics"`
}

// fail counts one failed job or invariant, keeping the first few messages.
func (r *workloadReport) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// document is the one JSON file a suite run writes.
type document struct {
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim     *string          `json:"claim"`
	Machine   machine          `json:"machine"`
	Seed      uint64           `json:"seed"`
	Scale     string           `json:"scale"`
	Seconds   float64          `json:"seconds_per_workload"`
	Traced    bool             `json:"traced"`
	Workloads []workloadReport `json:"workloads"`
	Failures  []string         `json:"failures,omitempty"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runChild measures one workload in this process and ends stdout with the
// driver's one-line result: the end-to-end metrics, or with -trace 1 every
// other metric of the registry.
func runChild(o options, stdout, stderr io.Writer, processStart time.Time) error {
	m := describeMachine(stderr)
	fmt.Fprintf(stdout, "benchmark: %s · seed %d · scale %s · %.0fs budget · trace %v\n", o.workloads[0], o.seed, o.scale.name, o.seconds, o.trace)
	fmt.Fprintf(stdout, "machine: %s · nproc %d · GOMAXPROCS %d · %s %s · commit %s · load %.2f\n", m.CPU, m.NProc, m.GOMAXPROCS, m.Go, m.OSArch, m.Commit, m.LoadAvg1)
	rep, err := runWorkload(o, o.workloads[0], processStart, stdout)
	if err != nil {
		return err
	}
	rep.Metrics.printTable(stdout, fmt.Sprintf("%s: %d passes, %d jobs attempted, %d failed", rep.Workload, rep.Passes, rep.Attempted, rep.Failed))
	for _, f := range rep.Failures {
		fmt.Fprintf(stdout, "  FAILED: %s\n", f)
	}
	if err := writeJSON(filepath.Join(o.outDir, rep.Workload+".json"), rep); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]value)}
	for _, d := range registry {
		if (d.kind == kindEndToEnd) == o.trace {
			continue
		}
		s := rep.Metrics[d.name] // the zero stat where a layer does not apply
		line.Metrics[d.name] = value{Value: s.Value, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if rep.Failed > 0 {
		return fmt.Errorf("%s: %d of %d jobs or checks failed", rep.Workload, rep.Failed, rep.Attempted)
	}
	return nil
}

// runSuite runs every selected workload in a fresh child process — heap, GC
// state and counters never leak between workloads — cross-checks them, and
// writes the one JSON document. With -aa it does so twice and compares.
func runSuite(o options, stdout, stderr io.Writer) error {
	doc := document{Machine: describeMachine(stderr), Seed: o.seed, Scale: o.scale.name, Seconds: o.seconds, Traced: o.trace}
	sets := 1
	if o.aa {
		sets = 2
	}
	var runs [][]workloadReport
	for set := 0; set < sets; set++ {
		reports, err := runChildren(o, stdout, stderr)
		if err != nil {
			return err
		}
		runs = append(runs, reports)
		for _, r := range reports {
			for _, f := range r.Failures {
				doc.Failures = append(doc.Failures, r.Workload+": "+f)
			}
		}
		doc.Failures = append(doc.Failures, crossCheck(reports)...)
	}
	doc.Workloads = runs[0]
	printSummary(stdout, doc.Workloads)
	if o.aa {
		doc.Failures = append(doc.Failures, compareAA(stdout, runs[0], runs[1])...)
	}
	path := filepath.Join(o.outDir, "report.json")
	if err := writeJSON(path, doc); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %s (claim: null)\n", path)
	if len(doc.Failures) > 0 {
		return fmt.Errorf("%d checks failed:\n  %s", len(doc.Failures), strings.Join(doc.Failures, "\n  "))
	}
	return nil
}

// runChildren re-executes this binary once per workload and reads back each
// child's report file.
func runChildren(o options, stdout, stderr io.Writer) ([]workloadReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	var reports []workloadReport
	for _, name := range o.workloads {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace,
			"-scale", o.scale.name, "-out", o.outDir)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		cmd.Env = append(os.Environ(), childEnv+"=1")
		runErr := cmd.Run() // Run waits for the child to exit
		var exit *exec.ExitError
		if runErr != nil && !errors.As(runErr, &exit) {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		b, err := os.ReadFile(filepath.Join(o.outDir, name+".json"))
		if err != nil {
			return nil, fmt.Errorf("%s: child left no report (exit: %v): %w", name, runErr, err)
		}
		var rep workloadReport
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if runErr != nil && rep.Failed == 0 {
			return nil, fmt.Errorf("%s: child failed without reporting why: %w", name, runErr)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// crossCheck holds the suite-level invariant: dist_fleet runs the identical
// job as fleet_async with training moved across the wire, so round history
// and result must be bit-equal.
func crossCheck(reports []workloadReport) []string {
	byName := make(map[string]workloadReport)
	for _, r := range reports {
		byName[r.Workload] = r
	}
	a, okA := byName["fleet_async"]
	d, okD := byName["dist_fleet"]
	if okA && okD && a.Digest != d.Digest {
		return []string{fmt.Sprintf("dist_fleet history/result digest %s differs from fleet_async %s", d.Digest, a.Digest)}
	}
	return nil
}

// runWorkload boots the system, measures the workload's passes, checks every
// output, and — with tracing on — re-runs the job traced and probes the
// layers. It returns an error only when the harness itself cannot run; a
// failing job or check is counted in the report.
func runWorkload(o options, name string, processStart time.Time, log io.Writer) (*workloadReport, error) {
	nproc := usableCPUs()
	w, err := buildWorkload(name, o.seed, o.scale, nproc)
	if err != nil {
		return nil, err
	}
	wantEvents := make([]int, len(w.jobs))
	for i, cfg := range w.jobs {
		if wantEvents[i], err = expectedEvents(cfg); err != nil {
			return nil, err
		}
	}
	rep := &workloadReport{Workload: name, Why: w.why, Seed: o.seed, Scale: o.scale.name, Traced: o.trace, Metrics: make(metricSet)}
	ms := rep.Metrics

	// Set-up, several times: boot the server (coordinator and workers
	// registered, for dist) and validate the workload's largest job, as the
	// server will at every submit. The first is timed from process start.
	// Like every timed end-to-end metric, a set-up's time is taken at the
	// calibration kernel's nominal speed (calib.go).
	var b *bench
	var setups, validates []float64
	setupStart := time.Now()
	for i := 0; i < setupReps || (i < setupMaxReps && time.Since(setupStart).Seconds() < setupBudget); i++ {
		if b != nil {
			b.close() // tearing the previous set-up down is not set-up time
		}
		calib := startCalibrator(calibSetupPeriod)
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if b, err = boot(w, nproc); err != nil {
			calib.factor()
			return nil, err
		}
		vStart := time.Now()
		err := w.largest().Validate()
		validates = append(validates, 1e3*time.Since(vStart).Seconds())
		raw := time.Since(start).Seconds()
		factor, _ := calib.factor()
		if err != nil {
			b.close()
			return nil, fmt.Errorf("generated config is invalid: %w", err)
		}
		setups = append(setups, raw/factor)
	}
	defer b.close()
	ms.samples("setup_s", setups)

	// Measured passes, closed loop. A traced run spends half its budget here
	// and the rest on the traced job and the probes.
	budget, minPasses, tenants := o.seconds, 2, 1
	if o.trace {
		budget, minPasses = o.seconds/2, 1
	}
	if w.mixed {
		tenants = nproc
	}
	var passes []passSample
	var passWalls []float64
	measureStart := time.Now()
	for {
		p := b.runPass(w, wantEvents, tenants)
		passes = append(passes, p)
		passWalls = append(passWalls, p.wall)
		fmt.Fprintf(log, "  pass %d: %d jobs in %.3fs, host factor %.3f (%d kernel samples)\n", len(passes), len(p.jobs), p.wall, p.factor, p.calibSamples)
		if len(passes) >= minPasses && time.Since(measureStart).Seconds()+median(passWalls) > budget {
			break
		}
	}
	rep.Passes = len(passes)

	// Output checks: each job's own invariants (runJob), identical results
	// across passes, nothing shed at this load. The timed end-to-end metrics
	// are taken at the calibration kernel's nominal speed: times divided, rates
	// multiplied, by the factor of the pass they were measured in.
	var walls, rawWalls, firsts, submits, queues, runs, lags, events, bytesRead []float64
	var roundsPerS, cpuPerJob, allocPerJob, jobsPerS, factors []float64
	calibSamples := 0
	suite := fnv.New64a()
	for pi, p := range passes {
		rounds := 0
		for i, j := range p.jobs {
			rep.Attempted++
			rounds += w.jobs[i].Rounds
			if j.fail != "" {
				rep.fail("pass %d job %d: %s", pi, i, j.fail)
				continue
			}
			if j.digest != passes[0].jobs[i].digest {
				rep.fail("pass %d job %d: result differs from pass 0 of the same config", pi, i)
			}
			if pi == 0 {
				dig := historyDigest{h: suite}
				dig.u64(j.digest)
			}
			walls = append(walls, j.wall/p.factor)
			rawWalls = append(rawWalls, j.wall)
			firsts = append(firsts, j.firstRound/p.factor)
			submits = append(submits, 1e3*j.submit)
			queues = append(queues, 1e3*j.queueWait)
			runs = append(runs, 1e3*j.run)
			lags = append(lags, 1e3*j.streamLag)
			events = append(events, float64(j.events))
			bytesRead = append(bytesRead, float64(j.bytes))
		}
		n := float64(len(p.jobs))
		roundsPerS = append(roundsPerS, float64(rounds)/p.wall*p.factor)
		cpuPerJob = append(cpuPerJob, p.cpu/n/p.factor)
		allocPerJob = append(allocPerJob, p.allocMB/n)
		jobsPerS = append(jobsPerS, n/p.wall*p.factor)
		factors = append(factors, p.factor)
		calibSamples += p.calibSamples
	}
	rep.Digest = fmt.Sprintf("%016x", suite.Sum64())
	rejected := b.srv.Stats().Rejected
	for i := 0; i < rejected; i++ {
		rep.fail("server shed a submission (429) at this load")
	}

	ms.samples("job_wall_s", walls)
	ms.samples("first_round_s", firsts)
	ms.samples("rounds_per_s", roundsPerS)
	ms.samples("job_cpu_s", cpuPerJob)
	ms.samples("alloc_mb", allocPerJob)
	ms.samples("jobs_per_s", jobsPerS)
	ms.headline("job_latency_p95_s", tailLatency(walls), walls)
	exactMetrics(ms, w, passes[0])

	ms.samples("server.submit_ms", submits)
	ms.samples("server.queue_wait_ms", queues)
	ms.samples("server.run_ms", runs)
	ms.samples("server.stream_events", events)
	ms.samples("server.stream_bytes", bytesRead)
	ms.samples("server.stream_lag_ms", lags)
	ms.scalar("server.rejected", float64(rejected))
	ms.samples("calib.factor", factors)
	ms.scalar("calib.samples", float64(calibSamples))
	ms.samples("calib.job_wall_raw_s", rawWalls)
	if w.dist {
		distCounts(ms, b.runner.WorkerStats(), w.jobs[0].Rounds)
	}

	if o.trace {
		rep.SpanFile = filepath.Join(o.outDir, "spans-"+name+".ndjson")
		if err := traceWorkload(rep, w, b, passes[0], validates, o.scale.probe, log); err != nil {
			return nil, err
		}
	}
	ms.scalar("failed_share", float64(rep.Failed)/float64(rep.Attempted))

	ru := processCPU()
	user, sys := ru.split()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ms.scalar("proc.peak_rss_mb", ru.peakRSSMB())
	ms.scalar("proc.cpu_user_s", user)
	ms.scalar("proc.cpu_sys_s", sys)
	ms.scalar("proc.gc_cycles", float64(mem.NumGC))
	ms.scalar("proc.gc_pause_ms_total", float64(mem.PauseTotalNs)/1e6)
	return rep, nil
}

// largest is the job set-up validates: the one whose build costs most.
func (w workload) largest() flips.SimulationConfig {
	for _, cfg := range w.jobs {
		if cfg.Dataset == "femnist" {
			return cfg
		}
	}
	return w.jobs[0]
}

// exactMetrics reports the paper's axis from pass 0 — rounds and simulated
// seconds to the target accuracy, and peak accuracy — as the mean over the
// pass's jobs (a single job for the single-job workloads). A job that never
// reached the target counts Rounds+1 and its whole simulated time.
func exactMetrics(ms metricSet, w workload, p passSample) {
	var rounds, simTime, peak, n float64
	for i, j := range p.jobs {
		if j.fail != "" {
			continue
		}
		n++
		peak += j.result.PeakAccuracy
		if j.result.RoundsToTarget > 0 {
			rounds += float64(j.result.RoundsToTarget)
			simTime += j.result.TimeToTarget
		} else {
			rounds += float64(w.jobs[i].Rounds + 1)
			simTime += j.result.SimTime
		}
	}
	if n == 0 {
		return
	}
	ms.scalar("rounds_to_target", rounds/n)
	ms.scalar("sim_time_to_target_s", simTime/n)
	ms.scalar("peak_accuracy", peak/n)
}
