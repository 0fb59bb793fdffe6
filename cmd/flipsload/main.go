// Command flipsload is a load generator and SLO gate for the flipsd job
// server. It fires a fixed number of simulation jobs at the server from a
// pool of concurrent submitters, follows each to its terminal event through
// server.Client, and reports throughput and latency percentiles. The job is
// the optional job file — a flips.SimulationConfig in the schema the job
// server accepts, read by the same strict decoder, as `flipsd -selftest` does
// — or the built-in defaultJob; job i runs its Seed + i. A job knob is a
// SimulationConfig field, never a flipsload flag.
//
// The exit status is the gate: flipsload fails (non-zero) when any accepted
// job is lost or finishes in error, when nothing was accepted at all, or
// when an SLO flag is violated — -slo-p99 bounds the p99
// submission-to-completion latency, -slo-arrivals floors the accepted
// arrival rate. -timeout is each job's deadline over submit and follow
// together, so a server that accepts and goes silent costs that long and the
// job counts as lost. CI points this at a freshly built flipsd to smoke the
// service under real concurrency.
//
// Usage:
//
//	flipsload -addr http://127.0.0.1:8080 -jobs 100 -concurrency 50 \
//	    -slo-p99 30s -slo-arrivals 5 [job.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"flips"
	"flips/internal/metrics"
	"flips/internal/parallel"
	"flips/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flipsload:", err)
		os.Exit(1)
	}
}

// report is the machine-readable run summary (-json).
type report struct {
	Jobs           int     `json:"jobs"`
	Accepted       int     `json:"accepted"`
	Rejected       int     `json:"rejected"` // 429/503 or submit transport errors: shed at the edge, never queued
	Done           int     `json:"done"`
	Failed         int     `json:"failed"`
	Lost           int     `json:"lost"` // accepted but outcome never observed — the drain contract violation
	WallSeconds    float64 `json:"wall_seconds"`
	ArrivalsPerSec float64 `json:"arrivals_per_sec"`
	P50Seconds     float64 `json:"p50_seconds"`
	P95Seconds     float64 `json:"p95_seconds"`
	P99Seconds     float64 `json:"p99_seconds"`
}

// outcome is one job's observed fate.
type outcome struct {
	state   string // "done", "failed", "rejected", "lost"
	latency time.Duration
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flipsload", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "flipsd job-server base URL")
	jobs := fs.Int("jobs", 100, "total jobs to submit")
	conc := fs.Int("concurrency", 50, "concurrent submitters (jobs in flight from the client side)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-job deadline over submit and follow; past it the job counts as lost")
	sloP99 := fs.Duration("slo-p99", 0, "fail when p99 job latency exceeds this (0 disables)")
	sloArrivals := fs.Float64("slo-arrivals", 0, "fail when accepted arrivals/sec fall below this (0 disables)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs <= 0 || *conc <= 0 {
		return fmt.Errorf("-jobs and -concurrency must be positive")
	}
	if fs.NArg() > 1 {
		return fmt.Errorf("at most one job file, got %d arguments", fs.NArg())
	}
	job := defaultJob
	if fs.NArg() == 1 {
		var err error
		if job, err = flips.DecodeSimulationConfigFile(fs.Arg(0)); err != nil {
			return err
		}
	}

	client := &server.Client{Base: *addr, HTTP: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *conc,
		MaxIdleConnsPerHost: *conc,
	}}}

	start := time.Now()
	outcomes := parallel.Map(parallel.New(*conc), *jobs, func(i int) outcome {
		cfg := job
		cfg.Seed += uint64(i)
		return followJob(client, cfg, *timeout)
	})
	wall := time.Since(start)

	rep := report{Jobs: *jobs, WallSeconds: wall.Seconds()}
	lat := metrics.NewWindow(*jobs)
	for _, o := range outcomes {
		switch o.state {
		case "done":
			rep.Done++
			lat.Push(o.latency.Seconds())
		case "failed":
			rep.Failed++
			lat.Push(o.latency.Seconds())
		case "rejected":
			rep.Rejected++
		default:
			rep.Lost++
		}
	}
	rep.Accepted = rep.Done + rep.Failed + rep.Lost
	if wall > 0 {
		rep.ArrivalsPerSec = float64(rep.Accepted) / wall.Seconds()
	}
	rep.P50Seconds = lat.Quantile(0.50)
	rep.P95Seconds = lat.Quantile(0.95)
	rep.P99Seconds = lat.Quantile(0.99)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "flipsload: %d jobs · %d concurrent · wall %.2fs\n", rep.Jobs, *conc, rep.WallSeconds)
		fmt.Fprintf(stdout, "  accepted=%d done=%d failed=%d rejected=%d lost=%d\n",
			rep.Accepted, rep.Done, rep.Failed, rep.Rejected, rep.Lost)
		fmt.Fprintf(stdout, "  arrivals/sec=%.2f p50=%.3fs p95=%.3fs p99=%.3fs\n",
			rep.ArrivalsPerSec, rep.P50Seconds, rep.P95Seconds, rep.P99Seconds)
	}

	var violations []string
	if rep.Accepted == 0 {
		violations = append(violations, "no job was accepted")
	}
	if rep.Failed > 0 {
		violations = append(violations, fmt.Sprintf("%d jobs failed", rep.Failed))
	}
	if rep.Lost > 0 {
		violations = append(violations, fmt.Sprintf("%d jobs lost (accepted but outcome never observed)", rep.Lost))
	}
	if *sloP99 > 0 && rep.P99Seconds > sloP99.Seconds() {
		violations = append(violations, fmt.Sprintf("p99 latency %.3fs exceeds SLO %s", rep.P99Seconds, sloP99))
	}
	if *sloArrivals > 0 && rep.ArrivalsPerSec < *sloArrivals {
		violations = append(violations, fmt.Sprintf("arrival rate %.2f/s below SLO %.2f/s", rep.ArrivalsPerSec, *sloArrivals))
	}
	if len(violations) > 0 {
		sort.Strings(violations)
		return fmt.Errorf("SLO gate failed: %s", strings.Join(violations, "; "))
	}
	return nil
}

// defaultJob is the job fired when no job file is given.
var defaultJob = flips.SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "random", Rounds: 2, Parties: 6, Seed: 1}

// followJob submits one job and follows it to its terminal event under one
// deadline. A submission shed (429 overload, 503 drain), refused or never
// answered is "rejected": the server never owned the job. After acceptance
// the server pushes the terminal event, so during a drain the outcome is
// observed before the listener goes away; a job is "lost" only when
// server.Client could not observe it by stream, status poll or reconnect.
func followJob(client *server.Client, cfg flips.SimulationConfig, timeout time.Duration) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	sub, err := client.Submit(ctx, cfg)
	if err != nil {
		return outcome{state: "rejected"}
	}
	ev, err := client.Follow(ctx, sub.ID, nil)
	switch {
	case err != nil:
		return outcome{state: "lost"}
	case ev.State != server.StateDone:
		fmt.Fprintf(os.Stderr, "flipsload: %s failed: %s\n", sub.ID, ev.Error)
		return outcome{state: "failed", latency: time.Since(start)}
	}
	return outcome{state: "done", latency: time.Since(start)}
}
