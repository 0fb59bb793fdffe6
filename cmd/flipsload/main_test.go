package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flips"
	"flips/internal/server"
)

// TestLoadRunAgainstRealServer drives flipsload end to end against the real
// job server with the real simulation runner: every job must be accepted,
// finish, and be observed — the exact path the CI SLO smoke exercises.
func TestLoadRunAgainstRealServer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	t.Parallel()
	srv := server.New(server.Config{Workers: 2, QueueDepth: 32})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-jobs", "8", "-concurrency", "4",
		"-json",
	}, &out)
	if err != nil {
		t.Fatalf("flipsload failed: %v\n%s", err, out.String())
	}
	var rep report
	if jerr := json.Unmarshal(out.Bytes(), &rep); jerr != nil {
		t.Fatalf("bad JSON report: %v\n%s", jerr, out.String())
	}
	if rep.Accepted != 8 || rep.Done != 8 || rep.Failed != 0 || rep.Lost != 0 {
		t.Fatalf("unexpected outcomes: %+v", rep)
	}
	if rep.P99Seconds <= 0 {
		t.Fatalf("latency percentiles not populated: %+v", rep)
	}
	if rep.ArrivalsPerSec <= 0 {
		t.Fatalf("arrival rate not populated: %+v", rep)
	}
}

// TestLoadRunGatesOnFailedJobs wires a runner that fails every job: the gate
// must trip (non-zero) even though all jobs were accepted and observed.
func TestLoadRunGatesOnFailedJobs(t *testing.T) {
	t.Parallel()
	srv := server.New(server.Config{
		Workers: 2,
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			return nil, fmt.Errorf("injected failure")
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	var out bytes.Buffer
	err := run([]string{"-addr", ts.URL, "-jobs", "3", "-concurrency", "3"}, &out)
	if err == nil || !strings.Contains(err.Error(), "jobs failed") {
		t.Fatalf("failed jobs did not trip the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "failed=3") {
		t.Fatalf("report does not show the failures:\n%s", out.String())
	}
}

// TestLoadRunGatesOnLatencySLO uses an instant fake runner and a 1ns p99
// bound, so any observed latency violates the SLO.
func TestLoadRunGatesOnLatencySLO(t *testing.T) {
	t.Parallel()
	srv := server.New(server.Config{
		Workers: 2,
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			return &flips.SimulationResult{}, nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	var out bytes.Buffer
	err := run([]string{"-addr", ts.URL, "-jobs", "3", "-concurrency", "3", "-slo-p99", "1ns"}, &out)
	if err == nil || !strings.Contains(err.Error(), "exceeds SLO") {
		t.Fatalf("latency SLO did not trip the gate: %v\n%s", err, out.String())
	}
}

// TestLoadRunRejectsBadFlags covers the flag surface.
func TestLoadRunRejectsBadFlags(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-jobs", "0"}, &out); err == nil {
		t.Fatal("zero jobs accepted")
	}
	if err := run([]string{"-concurrency", "-1"}, &out); err == nil {
		t.Fatal("negative concurrency accepted")
	}
	// Job knobs live in the job file, not on the command line.
	for _, gone := range []string{"-dataset", "-strategy", "-rounds", "-parties", "-seed"} {
		if err := run([]string{gone, "1"}, &out); err == nil {
			t.Fatalf("removed flag %s still accepted", gone)
		}
	}
	if err := run([]string{"a.json", "b.json"}, &out); err == nil {
		t.Fatal("two job files accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("a rejected invocation wrote to stdout:\n%s", out.String())
	}
}

// jobFile writes body as a job file and returns its path.
func jobFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJobFileIsTheJob: the positional job file is what gets submitted — every
// field of it, with job i on Seed + i — and it is read by the decoder POST
// /jobs uses: an unknown field or an invalid value is refused before anything
// is sent, in an error naming the file.
func TestJobFileIsTheJob(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var got []flips.SimulationConfig
	srv := server.New(server.Config{
		Workers: 2,
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			mu.Lock()
			got = append(got, cfg)
			mu.Unlock()
			return &flips.SimulationResult{}, nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	var out bytes.Buffer
	job := jobFile(t, `{"Dataset":"femnist","Strategy":"oort","Fold":"median","Rounds":3,"Parties":9,"Seed":40}`)
	if err := run([]string{"-addr", ts.URL, "-jobs", "3", "-concurrency", "1", job}, &out); err != nil {
		t.Fatalf("flipsload failed: %v\n%s", err, out.String())
	}
	if len(got) != 3 {
		t.Fatalf("server ran %d jobs, want 3", len(got))
	}
	for i, cfg := range got {
		want := flips.SimulationConfig{Dataset: "femnist", Strategy: "oort", Fold: "median", Rounds: 3, Parties: 9,
			Seed: 40 + uint64(i), Parallelism: 1} // Parallelism: the server's per-job default
		if cfg != want {
			t.Fatalf("job %d ran %+v, want %+v", i, cfg, want)
		}
	}

	for body, want := range map[string]string{
		`{"Dataset":"mit-bih-ecg","Selector":"oort"}`:  "unknown field",
		`{"Dataset":"mit-bih-ecg","Fold":"geometric"}`: `unknown fold "geometric"`,
		`{not json`: "malformed job config",
	} {
		bad := jobFile(t, body)
		err := run([]string{"-addr", ts.URL, bad}, &out)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), bad) {
			t.Errorf("job file %s: err = %v, want %q naming the file", body, err, want)
		}
	}
	if err := run([]string{"-addr", ts.URL, filepath.Join(t.TempDir(), "missing.json")}, &out); err == nil {
		t.Error("missing job file accepted")
	}
	if n := srv.Stats().Accepted; n != 3 {
		t.Fatalf("a refused job file still submitted: %d accepted", n)
	}
}

// TestTimeoutBoundsASilentServer: a server that accepts every job and then
// never sends a byte of its stream (nor answers a poll) used to hang flipsload
// forever — its http.Client had no timeout and -timeout was read only between
// stream lines. -timeout is now each job's ctx: the run ends, every job lost.
func TestTimeoutBoundsASilentServer(t *testing.T) {
	t.Parallel()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			_, _ = io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, `{"ID":"job-000001","State":"queued"}`)
			return
		}
		<-r.Context().Done() // stream and status alike: accepted, then silence
	}))
	defer ts.Close()

	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", ts.URL, "-jobs", "2", "-concurrency", "2", "-timeout", "300ms"}, &out)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "2 jobs lost") {
			t.Fatalf("err = %v, want both jobs lost\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("flipsload still following a silent server 30s past a 300ms -timeout")
	}
}
