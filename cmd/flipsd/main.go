// Command flipsd is the FLIPS aggregator-side daemon. It serves one of three
// modes:
//
//   - Job server (default, -mode jobs): a long-running multi-tenant
//     simulation service. Clients POST flips.SimulationConfig JSON to /jobs,
//     poll GET /jobs/{id}, stream per-round progress from
//     GET /jobs/{id}/stream (NDJSON; server.Client is the client of all
//     three), and scrape Prometheus metrics — queue depth, jobs in flight,
//     arrivals/sec, p50/p99 job latency, shard locality — from GET /metrics.
//     A job whose model diverges to a non-finite stat finishes "failed".
//     Jobs queue on a bounded buffer (-queue); a full buffer sheds load with
//     429. SIGTERM drains gracefully: new jobs get 503 while every accepted
//     job runs to completion, so an orderly shutdown never loses a job. A
//     submitter is treated as slow, dead or hostile: request headers and
//     bodies are bounded in time, and a stream follower that stops reading
//     loses its connection at the first batch that cannot be written.
//
//     With -dist-listen the job server also runs a shard-worker coordinator:
//     separate flipsd worker processes (started with -worker -connect) dial
//     in, each job's party space is partitioned into contiguous shard ranges
//     across them, and local training runs in the worker processes while the
//     coordinator keeps selection, device simulation, chaos, privacy, folds
//     and evaluation. Results are byte-identical to in-process execution at
//     every worker count; /metrics grows per-worker lag/byte gauges.
//
//   - Shard worker (-worker -connect host:port): dials a coordinator and
//     serves local-training waves until the coordinator sends a shutdown
//     frame (an idle worker waits for its next request without a deadline:
//     idle is not failed). Workers redial with backoff if the coordinator
//     restarts; mid-wave worker loss is recovered by the coordinator via
//     reassignment and replay of the wave, byte-identically.
//
//   - TEE clustering service (-mode tee): boots a simulated secure enclave
//     with the label-distribution clustering code and serves the
//     attestation/submission/selection protocol over TCP (paper §3.3,
//     Figure 3). On startup it prints the enclave's code measurement and the
//     hardware attestation public key; parties provision their attestation
//     server with both and refuse to submit label distributions to any
//     enclave that fails verification. A client silent for five minutes is
//     hung up on and dials again when it next needs the enclave.
//
//   - Selftest (-selftest [job.json]): deployment smoke — run one job through
//     the full pipeline (clustering, selection, training) in-process and
//     report time-to-target accuracy, then exit. The optional job file is a
//     flips.SimulationConfig in exactly the schema POST /jobs accepts, read
//     by the same strict decoder, so a deployment smokes the very job it will
//     submit; without one the built-in job runs (FLIPS selection, 24 parties
//     on a churning lognormal device fleet, 20 sync rounds with a 3 s
//     deadline). A job knob is a SimulationConfig field, never a flipsd flag.
//
// Usage:
//
//	flipsd -listen 127.0.0.1:8080 -queue 64 -workers 4     # job server
//	flipsd -dist-listen 127.0.0.1:9090 -dist-workers 2     # + shard coordinator
//	flipsd -worker -connect 127.0.0.1:9090                 # shard worker
//	flipsd -mode tee -listen 127.0.0.1:7443 -maxk 20       # TEE service
//	flipsd -selftest                                       # smoke, built-in job
//	flipsd -selftest -parallel 4 job.json                  # smoke, your job
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"flips"
	"flips/internal/dist"
	"flips/internal/experiment"
	"flips/internal/server"
	"flips/internal/tee"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, make(chan os.Signal, 1)); err != nil {
		fmt.Fprintln(os.Stderr, "flipsd:", err)
		os.Exit(1)
	}
}

// run drives the daemon; stop makes the serve loops interruptible so tests
// can shut the daemon down without process signals. Process signals are
// registered on stop only once a serve loop is reached — -selftest and flag
// errors keep the default signal disposition, so Ctrl+C still kills them.
func run(args []string, stdout, stderr io.Writer, stop chan os.Signal) error {
	fs := flag.NewFlagSet("flipsd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "TCP listen address")
	mode := fs.String("mode", "jobs", "serve mode: jobs (simulation job server) or tee (TEE clustering service)")
	maxK := fs.Int("maxk", 20, "tee mode: maximum cluster count for the Davies-Bouldin sweep")
	repeats := fs.Int("repeats", 20, "tee mode: K-Means restarts per k (the paper's T)")
	par := fs.Int("parallel", 0, "CPU cap: GOMAXPROCS for the serve modes; for -selftest the simulation worker-pool width, unless the job file sets Parallelism (0 = all cores)")
	queueDepth := fs.Int("queue", 64, "jobs mode: bound on queued-but-not-running jobs; beyond it submissions get 429")
	workers := fs.Int("workers", 0, "jobs mode: concurrently running jobs (0 = GOMAXPROCS)")
	jobPar := fs.Int("job-parallel", 1, "jobs mode: per-job worker-pool width applied when a submitted config leaves Parallelism at 0")
	distListen := fs.String("dist-listen", "", "jobs mode: also listen here for shard-worker processes and run jobs' local training distributed across them")
	distWorkers := fs.Int("dist-workers", 2, "jobs mode with -dist-listen: shard slots each job partitions its party space across")
	worker := fs.Bool("worker", false, "run as a shard worker: dial -connect and serve local-training waves until the coordinator shuts down")
	connect := fs.String("connect", "", "-worker: coordinator address to dial")
	selftest := fs.Bool("selftest", false, "run one job in-process instead of serving, report time-to-target accuracy, and exit; an optional argument names a job file in the POST /jobs schema (default: a short FLIPS job over a churning lognormal device fleet)")
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage: flipsd [flags]\n       flipsd -selftest [-parallel n] [job.json]\nFlags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *selftest {
		if fs.NArg() > 1 {
			return fmt.Errorf("-selftest takes at most one job file, got %d arguments", fs.NArg())
		}
		// The CPU cap is applied exactly once: as the simulation's
		// worker-pool width. (The serve modes below use GOMAXPROCS instead;
		// doing both here used to double-apply the cap.)
		return runSelftest(stdout, fs.Arg(0), *par)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (only -selftest takes one: its job file)", fs.Arg(0))
	}

	if *worker {
		if *connect == "" {
			return fmt.Errorf("-worker requires -connect host:port")
		}
		return serveWorker(stdout, stderr, *connect, *par, stop)
	}

	if *par > 0 {
		// The service shares hosts with FL aggregators; a deployment can pin
		// its CPU budget without cgroup plumbing.
		runtime.GOMAXPROCS(*par)
	}

	switch *mode {
	case "jobs":
		return serveJobs(stdout, *listen, *queueDepth, *workers, *jobPar, *distListen, *distWorkers, stop)
	case "tee":
		return serveTEE(stdout, *listen, *maxK, *repeats, stop)
	default:
		return fmt.Errorf("unknown -mode %q (valid: jobs, tee)", *mode)
	}
}

// An HTTP submitter is a peer like any other — slow, dead or hostile: its
// request line and headers must arrive within readHeaderTimeout and the whole
// request, a POST /jobs body (at most 1 MiB) included, within readTimeout, or
// the connection is released. Variables only so the slow-loris test can
// shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
)

// serveJobs runs the simulation job server until a stop signal, then drains:
// submission stops (503), every accepted job finishes, active status/stream
// connections complete, and the drain summary reports the final counts. With
// distListen set it also runs the shard-worker coordinator and executes every
// job's local training across the registered worker processes; the
// coordinator closes only after the drain, so in-flight jobs keep their
// workers, and closing sends each worker its shutdown frame.
func serveJobs(stdout io.Writer, listen string, queueDepth, workers, jobPar int, distListen string, distWorkers int, stop chan os.Signal) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("job server: %w", err)
	}
	cfg := server.Config{
		QueueDepth:     queueDepth,
		Workers:        workers,
		JobParallelism: jobPar,
	}
	var coord *dist.Coordinator
	if distListen != "" {
		if distWorkers <= 0 {
			ln.Close()
			return fmt.Errorf("-dist-workers must be positive with -dist-listen")
		}
		coord = dist.NewCoordinator()
		distAddr, err := coord.Listen(distListen)
		if err != nil {
			ln.Close()
			return fmt.Errorf("shard coordinator: %w", err)
		}
		defer coord.Close()
		runner := &flips.DistRunner{Coord: coord, Workers: distWorkers}
		cfg.Run = runner.Run
		cfg.DistStats = func() (int, map[uint64][]dist.WorkerStat) {
			return coord.WorkerCount(), runner.WorkerStats()
		}
		fmt.Fprintf(stdout, "flipsd: shard coordinator on %s (jobs train across %d worker slots)\n", distAddr, distWorkers)
	}
	srv := server.New(cfg)
	// No WriteTimeout: it would cut a long job stream. A stream bounds each
	// flushed batch instead (server.handleStream).
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	fmt.Fprintf(stdout, "flipsd: serving simulation jobs on http://%s\n", ln.Addr())
	fmt.Fprintf(stdout, "  POST /jobs · GET /jobs/{id} · GET /jobs/{id}/stream · GET /metrics\n")
	fmt.Fprintf(stdout, "  queue=%d workers=%d job-parallel=%d\n", queueDepth, workersOrCores(workers), jobPar)

	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	select {
	case err := <-serveErr:
		return fmt.Errorf("job server: %w", err)
	case <-stop:
	}

	fmt.Fprintln(stdout, "flipsd: draining job queue (new submissions get 503)")
	srv.Drain()
	// Every job has finished; give active streams/polls a bounded window to
	// deliver their final events before the listener goes away.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	st := srv.Stats()
	fmt.Fprintf(stdout, "flipsd: drained: accepted=%d done=%d failed=%d rejected=%d\n",
		st.Accepted, st.Done, st.Failed, st.Rejected)
	if st.Done+st.Failed != st.Accepted {
		return fmt.Errorf("drain lost jobs: accepted=%d but done+failed=%d", st.Accepted, st.Done+st.Failed)
	}
	return nil
}

func workersOrCores(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// serveWorker runs the shard-worker mode: dial the coordinator and serve
// training waves, redialing with backoff when the connection drops, until the
// coordinator sends a shutdown frame or the process receives a stop signal.
func serveWorker(stdout, stderr io.Writer, addr string, par int, stop chan os.Signal) error {
	fmt.Fprintf(stdout, "flipsd: shard worker dialing %s\n", addr)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	var mu sync.Mutex
	var cur net.Conn
	stopped := false
	go func() {
		<-stop
		mu.Lock()
		stopped = true
		if cur != nil {
			cur.Close()
		}
		mu.Unlock()
	}()

	opt := dist.WorkerOptions{Builder: flips.DistWorkerBuilder(), Parallelism: par}
	backoff := 100 * time.Millisecond
	for {
		mu.Lock()
		done := stopped
		mu.Unlock()
		if done {
			fmt.Fprintln(stdout, "flipsd: worker stopping on signal")
			return nil
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			fmt.Fprintf(stderr, "flipsd: worker dial %s: %v (retrying in %s)\n", addr, err, backoff)
			time.Sleep(backoff)
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
			continue
		}
		mu.Lock()
		cur = conn
		mu.Unlock()
		backoff = 100 * time.Millisecond
		err = dist.ServeConn(conn, opt)
		conn.Close()
		mu.Lock()
		cur = nil
		done = stopped
		mu.Unlock()
		if err == nil {
			fmt.Fprintln(stdout, "flipsd: worker received shutdown, exiting")
			return nil
		}
		if done {
			fmt.Fprintln(stdout, "flipsd: worker stopping on signal")
			return nil
		}
		fmt.Fprintf(stderr, "flipsd: worker connection lost: %v (redialing)\n", err)
	}
}

// serveTEE runs the TEE clustering service until a stop signal.
func serveTEE(stdout io.Writer, listen string, maxK, repeats int, stop chan os.Signal) error {
	code := tee.ClusteringCode{Version: tee.CodeVersion, MaxK: maxK, Repeats: repeats}
	hwPub, hwPriv, err := tee.GenerateHardwareKey()
	if err != nil {
		return err
	}
	enclave, err := tee.NewEnclave(code, hwPriv)
	if err != nil {
		return err
	}
	srv := tee.NewServer(enclave)
	addr, err := srv.Listen(listen)
	if err != nil {
		return err
	}
	defer srv.Close()

	fmt.Fprintf(stdout, "flipsd: serving TEE clustering on %s\n", addr)
	fmt.Fprintf(stdout, "  enclave measurement:  %s\n", enclave.Measurement())
	fmt.Fprintf(stdout, "  hardware public key:  %s\n", hex.EncodeToString(hwPub))
	fmt.Fprintln(stdout, "  parties must provision their attestation server with both values")

	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	<-stop
	fmt.Fprintln(stdout, "flipsd: wiping enclave state and shutting down")
	enclave.Wipe()
	return nil
}

// selftestJob is the job -selftest runs when no job file is given.
var selftestJob = flips.SimulationConfig{
	Dataset:       "mit-bih-ecg",
	Strategy:      "flips",
	DeviceProfile: "lognormal",
	Availability:  "churn",
	Deadline:      3,
	Aggregation:   "sync",
	Rounds:        20,
	Parties:       24,
	Seed:          1,
}

// runSelftest exercises the full pipeline the service host will carry —
// clustering, participant selection, FL rounds — and reports rounds- and
// simulated time-to-target-accuracy. The job is selftestJob, or the job file
// at path decoded and validated exactly as POST /jobs would, so a deployment
// can smoke whichever selector, execution model, fold and privacy
// middleware it will run; nothing is printed before the job is accepted.
func runSelftest(stdout io.Writer, path string, par int) error {
	cfg := selftestJob
	if path != "" {
		var err error
		if cfg, err = flips.DecodeSimulationConfigFile(path); err != nil {
			return err
		}
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = par
	}
	res, err := flips.RunSimulation(cfg)
	if err != nil {
		return err
	}
	strategy, aggregation := cfg.Strategy, cfg.Aggregation
	if strategy == "" {
		strategy = "flips"
	}
	if aggregation == "" {
		aggregation = "sync"
	}
	fleet := "the legacy straggler model"
	if cfg.DeviceProfile != "" {
		fleet = fmt.Sprintf("a %s device fleet", cfg.DeviceProfile)
		if cfg.Availability != "" {
			fleet += " (" + cfg.Availability + ")"
		}
	}
	notes := ""
	if cfg.Fold != "" {
		notes += ", " + cfg.Fold + " fold"
	}
	if cfg.Mask {
		notes += ", masked"
	} else if cfg.Clip > 0 {
		notes += ", clipped"
	}
	if cfg.Epsilon > 0 {
		notes += fmt.Sprintf(", ε=%g", cfg.Epsilon)
	}
	fmt.Fprintf(stdout, "flipsd selftest: %s selection over %s, %s aggregation%s\n", strategy, fleet, aggregation, notes)
	if res.NumClusters > 0 {
		fmt.Fprintf(stdout, "  clusters:            %d\n", res.NumClusters)
	}
	fmt.Fprintf(stdout, "  peak accuracy:       %.2f%%\n", 100*res.PeakAccuracy)
	fmt.Fprintf(stdout, "  simulated job time:  %s\n", experiment.FormatSimDuration(res.SimTime))
	fmt.Fprintf(stdout, "  rounds to %.0f%%:       %s\n", 100*res.TargetAccuracy, formatRounds(res.RoundsToTarget))
	fmt.Fprintf(stdout, "  time to %.0f%%:         %s\n", 100*res.TargetAccuracy, experiment.FormatSimDuration(res.TimeToTarget))
	if cfg.Mask {
		aborts := 0
		for _, h := range res.History {
			if h.MaskAborted {
				aborts++
			}
		}
		fmt.Fprintf(stdout, "  mask aborts:         %d\n", aborts)
	}
	fmt.Fprintln(stdout, "flipsd selftest: ok")
	return nil
}

func formatRounds(rtt int) string {
	if rtt < 0 {
		return "not reached"
	}
	return fmt.Sprintf("%d", rtt)
}
