package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"flips"
	"flips/internal/server"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the serve test reads output
// while the daemon goroutine writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// jobFile writes a -selftest job file: the built-in job at seed 3 with extra
// JSON members spliced in (a later duplicate key wins, so extra may override
// any of them).
func jobFile(t *testing.T, extra string) string {
	t.Helper()
	body := `{"Dataset":"mit-bih-ecg","Strategy":"flips","DeviceProfile":"lognormal","Availability":"churn",` +
		`"Deadline":3,"Aggregation":"sync","Rounds":20,"Parties":24,"Seed":3`
	if extra != "" {
		body += "," + extra
	}
	path := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(path, []byte(body+"}"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRejectsBadFlags(t *testing.T) {
	t.Parallel()
	var out, errBuf bytes.Buffer
	stop := make(chan os.Signal)
	if err := run([]string{"-no-such-flag"}, &out, &errBuf, stop); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-maxk", "banana"}, &out, &errBuf, stop); err == nil {
		t.Fatal("non-numeric maxk accepted")
	}
	// Job knobs live in the job file, not on the command line.
	for _, gone := range []string{"-seed", "-selector", "-aggregation", "-shards", "-fold", "-clip", "-epsilon", "-share-threshold", "-version"} {
		if err := run([]string{"-selftest", gone, "1"}, &out, &errBuf, stop); err == nil {
			t.Fatalf("removed flag %s still accepted", gone)
		}
	}
	if err := run([]string{"-selftest", "-mask"}, &out, &errBuf, stop); err == nil {
		t.Fatal("removed flag -mask still accepted")
	}
	if err := run([]string{"-selftest", "a.json", "b.json"}, &out, &errBuf, stop); err == nil {
		t.Fatal("two job files accepted")
	}
	if err := run([]string{"stray.json"}, &out, &errBuf, stop); err == nil {
		t.Fatal("a job file without -selftest accepted")
	}
	if err := run([]string{"-selftest", filepath.Join(t.TempDir(), "missing.json")}, &out, &errBuf, stop); err == nil {
		t.Fatal("missing job file accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("a rejected invocation wrote to stdout:\n%s", out.String())
	}
}

func TestRunRejectsBadListenAddress(t *testing.T) {
	t.Parallel()
	var out, errBuf bytes.Buffer
	stop := make(chan os.Signal)
	if err := run([]string{"-listen", "not-an-address"}, &out, &errBuf, stop); err == nil {
		t.Fatal("bad listen address accepted in jobs mode")
	}
	if err := run([]string{"-mode", "tee", "-listen", "not-an-address"}, &out, &errBuf, stop); err == nil {
		t.Fatal("bad listen address accepted in tee mode")
	}
}

func TestRunRejectsUnknownMode(t *testing.T) {
	t.Parallel()
	var out, errBuf bytes.Buffer
	err := run([]string{"-mode", "banana"}, &out, &errBuf, make(chan os.Signal))
	if err == nil || !strings.Contains(err.Error(), "unknown -mode") {
		t.Fatalf("unknown mode not rejected: %v", err)
	}
}

// TestRunRejectsUnknownAggregation pins the fail-fast contract: a typo'd
// execution model in the job file is caught by the decoder's validation — the
// one POST /jobs runs — before the selftest prints or runs anything.
func TestRunRejectsUnknownAggregation(t *testing.T) {
	t.Parallel()
	var out, errBuf bytes.Buffer
	err := run([]string{"-selftest", jobFile(t, `"Aggregation":"asink"`)}, &out, &errBuf, make(chan os.Signal))
	if err == nil || !strings.Contains(err.Error(), `unknown aggregation policy "asink"`) {
		t.Fatalf("unknown aggregation not rejected by the job decoder: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("selftest ran before validation:\n%s", out.String())
	}
}

// TestRunRejectsUnknownFold pins the same fail-fast contract for the
// aggregation fold name.
func TestRunRejectsUnknownFold(t *testing.T) {
	t.Parallel()
	var out, errBuf bytes.Buffer
	err := run([]string{"-selftest", jobFile(t, `"Fold":"geometric"`)}, &out, &errBuf, make(chan os.Signal))
	if err == nil || !strings.Contains(err.Error(), `unknown fold "geometric"`) {
		t.Fatalf("unknown fold not rejected by the job decoder: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("selftest ran before validation:\n%s", out.String())
	}
}

// TestRunRejectsUnknownSelector pins the same fail-fast contract for the
// Strategy registry name, and checks the error lists what would have worked;
// a field POST /jobs does not know is refused the same way.
func TestRunRejectsUnknownSelector(t *testing.T) {
	t.Parallel()
	var out, errBuf bytes.Buffer
	err := run([]string{"-selftest", jobFile(t, `"Strategy":"psychic"`)}, &out, &errBuf, make(chan os.Signal))
	if err == nil || !strings.Contains(err.Error(), `unknown selector "psychic"`) || !strings.Contains(err.Error(), "oort") {
		t.Fatalf("unknown selector not rejected by the job decoder with the registered list: %v", err)
	}
	err = run([]string{"-selftest", jobFile(t, `"Selector":"oort"`)}, &out, &errBuf, make(chan os.Signal))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("unknown job-file field not rejected: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("selftest ran before validation:\n%s", out.String())
	}
}

// TestSelftestRunsAlternateSelector smokes a job file's Strategy end to end:
// the selftest must run the strategy the file names and name it in its
// banner.
func TestSelftestRunsAlternateSelector(t *testing.T) {
	t.Parallel()
	var out, errBuf bytes.Buffer
	if err := run([]string{"-selftest", jobFile(t, `"Strategy":"loss-prop"`)}, &out, &errBuf, make(chan os.Signal)); err != nil {
		t.Fatal(err)
	}
	o := out.String()
	if !strings.Contains(o, "loss-prop selection") {
		t.Fatalf("selftest banner missing the selector:\n%s", o)
	}
	if !strings.Contains(o, "selftest: ok") {
		t.Fatalf("selftest with an alternate selector did not finish:\n%s", o)
	}
}

// TestServeAndShutdown boots the TEE daemon on an ephemeral port and stops it
// via the signal channel, checking the provisioning banner and the wipe
// message — the full lifecycle short of real TCP clients (covered by
// internal/tee's own tests).
func TestServeAndShutdown(t *testing.T) {
	t.Parallel()
	var out, errBuf syncBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-mode", "tee", "-listen", "127.0.0.1:0"}, &out, &errBuf, stop)
	}()
	// The banner is written before the serve loop blocks on stop; poll for
	// it, then trigger shutdown.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(out.String(), "serving TEE clustering") {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up; output:\n%s\n%s", out.String(), errBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	o := out.String()
	if !strings.Contains(o, "enclave measurement:") || !strings.Contains(o, "hardware public key:") {
		t.Fatalf("missing provisioning banner:\n%s", o)
	}
	if !strings.Contains(o, "wiping enclave state") {
		t.Fatalf("missing shutdown message:\n%s", o)
	}
}

// smallJob is a real simulation that finishes in milliseconds.
var smallJob = flips.SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "random", Rounds: 2, Parties: 6, Seed: 1}

// testCtx bounds one test's job-client calls.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

var jobsBanner = regexp.MustCompile(`serving simulation jobs on (http://[0-9.:]+)`)

// awaitJobsBanner polls the daemon's output for the job server's banner and
// returns the base URL it announces.
func awaitJobsBanner(t *testing.T, out, errBuf *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := jobsBanner.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("job server never came up; output:\n%s\n%s", out.String(), errBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobsServeSubmitAndDrain boots the default job-server mode on an
// ephemeral port, submits real simulation jobs over HTTP, then sends the
// stop signal while they may still be queued or running. The drain summary
// must account for every accepted job — the no-lost-jobs contract of an
// orderly shutdown.
func TestJobsServeSubmitAndDrain(t *testing.T) {
	t.Parallel()
	var out, errBuf syncBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-workers", "2", "-queue", "8"}, &out, &errBuf, stop)
	}()
	base := awaitJobsBanner(t, &out, &errBuf)

	const jobs = 5
	client, ctx := &server.Client{Base: base}, testCtx(t)
	for i := 0; i < jobs; i++ {
		job := smallJob
		job.Seed = uint64(i + 1)
		if _, err := client.Submit(ctx, job); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	// Metrics must be scrapeable while jobs are in flight.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	metricsOut := sb.String()
	for _, want := range []string{"flipsd_queue_depth", "flipsd_job_latency_seconds{quantile=\"0.99\"}"} {
		if !strings.Contains(metricsOut, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metricsOut)
		}
	}

	// Drain while jobs are still queued/running: none may be lost.
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("drain failed: %v\noutput:\n%s", err, out.String())
	}
	o := out.String()
	wantSummary := fmt.Sprintf("drained: accepted=%d done=%d failed=0", jobs, jobs)
	if !strings.Contains(o, wantSummary) {
		t.Fatalf("drain summary missing %q:\n%s", wantSummary, o)
	}
}

// TestSlowLorisSubmitReleasesItsConnection: a POST /jobs that stalls inside
// its headers, and one that announces a body and stalls inside it, are hung
// up on once readHeaderTimeout / readTimeout pass — at which point a
// well-behaved submission is still served and the drain balances. Serial: it
// shortens the two timeouts before the daemon boots.
func TestSlowLorisSubmitReleasesItsConnection(t *testing.T) {
	oldHeader, oldRead := readHeaderTimeout, readTimeout
	readHeaderTimeout, readTimeout = 200*time.Millisecond, 400*time.Millisecond
	var out, errBuf syncBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-workers", "1"}, &out, &errBuf, stop)
	}()
	t.Cleanup(func() { readHeaderTimeout, readTimeout = oldHeader, oldRead })
	base := awaitJobsBanner(t, &out, &errBuf)

	for name, sent := range map[string]string{
		"stalls in the headers": "POST /jobs HTTP/1.1\r\nHost: flipsd\r\nContent-Ty",
		"stalls in the body":    "POST /jobs HTTP/1.1\r\nHost: flipsd\r\nContent-Length: 200\r\n\r\n{\"Dataset\":",
	} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, sent); err != nil {
			t.Fatal(err)
		}
		released := make(chan error, 1)
		go func() {
			// Whatever the server says first (nothing, or a 4xx for the body
			// it could not finish reading), it must then hang up.
			_, err := io.Copy(io.Discard, conn)
			released <- err
		}()
		select {
		case err := <-released:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: connection still held", name)
		}
	}

	if _, err := (&server.Client{Base: base}).Submit(testCtx(t), smallJob); err != nil {
		t.Fatalf("well-behaved submission after the slow ones: %v", err)
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("drain failed: %v\noutput:\n%s", err, out.String())
	}
	if o := out.String(); !strings.Contains(o, "drained: accepted=1 done=1 failed=0") {
		t.Fatalf("drain summary:\n%s", o)
	}
}

var coordBanner = regexp.MustCompile(`shard coordinator on ([0-9.:]+)`)

// TestJobsServeDistributed boots the job server with the shard-worker
// coordinator, connects two flipsd worker-mode instances, runs a real job
// whose local training crosses the process seam, and checks the full
// lifecycle: per-worker /metrics series while the job runs, a byte-correct
// done state, a lossless drain, and workers exiting cleanly on the
// coordinator's shutdown frames.
func TestJobsServeDistributed(t *testing.T) {
	t.Parallel()
	var out, errBuf syncBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-workers", "1", "-queue", "8",
			"-dist-listen", "127.0.0.1:0", "-dist-workers", "2"}, &out, &errBuf, stop)
	}()
	deadline := time.Now().Add(5 * time.Second)
	var base, coordAddr string
	for base == "" || coordAddr == "" {
		o := out.String()
		if m := jobsBanner.FindStringSubmatch(o); m != nil {
			base = m[1]
		}
		if m := coordBanner.FindStringSubmatch(o); m != nil {
			coordAddr = m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("distributed job server never came up; output:\n%s\n%s", out.String(), errBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	workerDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		var wOut, wErr syncBuffer
		go func() {
			workerDone <- run([]string{"-worker", "-connect", coordAddr, "-parallel", "1"}, &wOut, &wErr, make(chan os.Signal, 1))
		}()
	}

	client, ctx := &server.Client{Base: base}, testCtx(t)
	sub, err := client.Submit(ctx, flips.SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "random", Rounds: 6, Seed: 7})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Scrape as each round lands — the job is provably running then — and once
	// more after the terminal event, accumulating the series seen.
	seen := make(map[string]bool)
	scrape := func() {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Errorf("scrape /metrics: %v", err)
			return
		}
		defer resp.Body.Close()
		m, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("read /metrics: %v", err)
		}
		for _, name := range []string{
			"flipsd_dist_workers_registered 2",
			"flipsd_dist_worker_connected{",
			"flipsd_dist_worker_waves_total{",
			"flipsd_dist_worker_bytes_in_total{",
			"flipsd_dist_worker_lag_waves{",
		} {
			if strings.Contains(string(m), name) {
				seen[name] = true
			}
		}
	}
	final, err := client.Follow(ctx, sub.ID, func(flips.RoundPoint) { scrape() })
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	if final.State != server.StateDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	scrape()
	if len(seen) != 5 {
		t.Fatalf("missing /metrics series during the run; saw only %v", seen)
	}

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("drain failed: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "drained: accepted=1 done=1 failed=0") {
		t.Fatalf("drain summary wrong:\n%s", out.String())
	}
	// Coordinator shutdown frames must release both workers with a clean exit.
	for i := 0; i < 2; i++ {
		select {
		case err := <-workerDone:
			if err != nil {
				t.Fatalf("worker %d exited with error: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit after coordinator shutdown")
		}
	}
}

// TestWorkerModeRequiresConnect pins the flag contract.
func TestWorkerModeRequiresConnect(t *testing.T) {
	t.Parallel()
	var out, errBuf bytes.Buffer
	err := run([]string{"-worker"}, &out, &errBuf, make(chan os.Signal))
	if err == nil || !strings.Contains(err.Error(), "-connect") {
		t.Fatalf("worker without -connect not rejected: %v", err)
	}
}

// TestSelftestReportsTimeToAccuracy runs the deployment smoke: a short
// device-model FL job whose report must include both convergence clocks.
func TestSelftestReportsTimeToAccuracy(t *testing.T) {
	t.Parallel()
	var out, errBuf bytes.Buffer
	stop := make(chan os.Signal)
	if err := run([]string{"-selftest", jobFile(t, "")}, &out, &errBuf, stop); err != nil {
		t.Fatal(err)
	}
	o := out.String()
	for _, want := range []string{"flipsd selftest", "peak accuracy:", "simulated job time:", "rounds to", "time to", "selftest: ok"} {
		if !strings.Contains(o, want) {
			t.Fatalf("selftest output missing %q:\n%s", want, o)
		}
	}
	if strings.Contains(o, "simulated job time:  0s") {
		t.Fatalf("selftest accumulated no simulated time:\n%s", o)
	}
	// No job file runs the built-in job: the same job at seed 1.
	var builtin, same bytes.Buffer
	if err := run([]string{"-selftest"}, &builtin, &errBuf, stop); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-selftest", jobFile(t, `"Seed":1`)}, &same, &errBuf, stop); err != nil {
		t.Fatal(err)
	}
	if builtin.String() != same.String() {
		t.Fatalf("bare -selftest differs from its built-in job written out as a file:\n%s\nvs\n%s", builtin.String(), same.String())
	}
}

// TestSelftestRunsRobustFold smokes a job file's Fold end to end: the selftest
// must run the fold the file names and say so in its banner.
func TestSelftestRunsRobustFold(t *testing.T) {
	t.Parallel()
	var out, errBuf bytes.Buffer
	if err := run([]string{"-selftest", jobFile(t, `"Fold":"median"`)}, &out, &errBuf, make(chan os.Signal)); err != nil {
		t.Fatal(err)
	}
	o := out.String()
	if !strings.Contains(o, "median fold") {
		t.Fatalf("selftest banner missing the fold:\n%s", o)
	}
	if !strings.Contains(o, "selftest: ok") {
		t.Fatalf("selftest with a robust fold did not finish:\n%s", o)
	}
}

// TestSelftestIsShardInvariant pins the public-stack half of the sharded
// byte-exactness contract: the selftest report — accuracies, clocks,
// rounds-to-target — must be identical at any Shards value.
func TestSelftestIsShardInvariant(t *testing.T) {
	t.Parallel()
	var base, sharded, errBuf bytes.Buffer
	if err := run([]string{"-selftest", jobFile(t, "")}, &base, &errBuf, make(chan os.Signal)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-selftest", jobFile(t, `"Shards":5`)}, &sharded, &errBuf, make(chan os.Signal)); err != nil {
		t.Fatal(err)
	}
	if base.String() != sharded.String() {
		t.Fatalf("selftest output moved under Shards 5:\n%s\nvs\n%s", base.String(), sharded.String())
	}
}

// TestSelftestParallelismIsResultInvariant pins the other half of the same
// contract and the single-application CPU-cap fix: -parallel now bounds the
// simulation worker pool (not GOMAXPROCS as well), and the report must be
// byte-identical at any width.
func TestSelftestParallelismIsResultInvariant(t *testing.T) {
	t.Parallel()
	var base, capped, errBuf bytes.Buffer
	job := jobFile(t, "")
	if err := run([]string{"-selftest", job}, &base, &errBuf, make(chan os.Signal)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-selftest", "-parallel", "2", job}, &capped, &errBuf, make(chan os.Signal)); err != nil {
		t.Fatal(err)
	}
	if base.String() != capped.String() {
		t.Fatalf("selftest output moved under -parallel 2:\n%s\nvs\n%s", base.String(), capped.String())
	}
}

// TestSelftestRunsMasked smokes a masked job file end to end: the selftest
// must run the secure-aggregation middleware, say so in its banner, and
// report the abort counter.
func TestSelftestRunsMasked(t *testing.T) {
	t.Parallel()
	var out, errBuf bytes.Buffer
	if err := run([]string{"-selftest", jobFile(t, `"Mask":true,"ShareThreshold":2`)}, &out, &errBuf, make(chan os.Signal)); err != nil {
		t.Fatal(err)
	}
	o := out.String()
	if !strings.Contains(o, "masked") {
		t.Fatalf("selftest banner missing masking:\n%s", o)
	}
	if !strings.Contains(o, "mask aborts:") {
		t.Fatalf("selftest missing the abort counter:\n%s", o)
	}
	if !strings.Contains(o, "selftest: ok") {
		t.Fatalf("masked selftest did not finish:\n%s", o)
	}
	// An invalid privacy combination fails fast through the same validation
	// the job server uses.
	var bad bytes.Buffer
	err := run([]string{"-selftest", jobFile(t, `"Mask":true,"Fold":"median"`)}, &bad, &errBuf, make(chan os.Signal))
	if err == nil || !strings.Contains(err.Error(), "mask") {
		t.Fatalf("err = %v, want masking-over-robust-fold rejection", err)
	}
	if bad.Len() != 0 {
		t.Fatalf("selftest ran before validation:\n%s", bad.String())
	}
}
