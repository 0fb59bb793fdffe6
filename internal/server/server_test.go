package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flips"
	"flips/internal/dist"
)

// validJob is a real, fast SimulationConfig: submissions go through the
// genuine flips.SimulationConfig.Validate even when the runner is faked.
var validJob = flips.SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "random", Rounds: 2, Parties: 6, Seed: 1}

// testCtx bounds one test's client calls.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func clientOf(ts *httptest.Server) *Client { return &Client{Base: ts.URL, HTTP: ts.Client()} }

// submit posts validJob through the Client and requires a 202.
func submit(t *testing.T, ts *httptest.Server) JobStatus {
	t.Helper()
	st, err := clientOf(ts).Submit(testCtx(t), validJob)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	st, err := clientOf(ts).Status(testCtx(t), id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal follows the job to its terminal event and returns its status.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	if _, err := clientOf(ts).Follow(testCtx(t), id, nil); err != nil {
		t.Fatalf("job %s never reached a terminal state: %v", id, err)
	}
	return getStatus(t, ts, id)
}

func TestJobLifecycle(t *testing.T) {
	t.Parallel()
	s := New(Config{
		Workers: 2,
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			for i := 1; i <= 3; i++ {
				onRound(flips.RoundPoint{Round: i, Accuracy: 0.2 * float64(i), ShardsTouched: 2})
			}
			return &flips.SimulationResult{PeakAccuracy: 0.6, RoundsToTarget: 3}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	st := submit(t, ts)
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit response %+v", st)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("final state %q (%s)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.PeakAccuracy != 0.6 {
		t.Fatalf("missing result: %+v", final)
	}
	if final.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", final.Rounds)
	}
	if final.StartedAt.IsZero() || final.FinishedAt.IsZero() {
		t.Fatalf("missing phase timestamps: %+v", final)
	}

	// The listing carries the job without the heavy result payload.
	resp2, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID || list[0].Result != nil {
		t.Fatalf("listing = %+v", list)
	}
}

// TestJobFailureIsReported: a config that validated (202) and then fails in
// the runner — which is where anything Validate cannot see without the fleet
// now surfaces — ends failed with the runner's message, on the status and as
// the stream's terminal event after the rounds it did produce.
func TestJobFailureIsReported(t *testing.T) {
	t.Parallel()
	s := New(Config{
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			onRound(flips.RoundPoint{Round: 1, Accuracy: 0.3})
			return nil, errors.New("synthetic engine failure")
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	st := submit(t, ts)
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "synthetic engine failure") || final.Result != nil {
		t.Fatalf("final = %+v", final)
	}
	rounds := 0
	ev, err := clientOf(ts).Follow(testCtx(t), st.ID, func(flips.RoundPoint) { rounds++ })
	if err != nil || rounds != 1 || ev.State != StateFailed || !strings.Contains(ev.Error, "synthetic engine failure") {
		t.Fatalf("stream = %d rounds, %+v, %v", rounds, ev, err)
	}
	if got := s.Stats(); got.Failed != 1 || got.Done != 0 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestJobPanicMarksJobFailed(t *testing.T) {
	t.Parallel()
	s := New(Config{
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			panic("runner bug")
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := submit(t, ts)
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "runner bug") {
		t.Fatalf("final = %+v", final)
	}
	// The worker survived the panic: the next job runs normally.
	s.cfg.Run = func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
		return &flips.SimulationResult{}, nil
	}
	st2 := submit(t, ts)
	if final := waitTerminal(t, ts, st2.ID); final.State != StateDone {
		t.Fatalf("job after panic = %+v", final)
	}
	s.Drain()
}

func TestSubmitRejectsMalformedConfigs(t *testing.T) {
	t.Parallel()
	s := New(Config{
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			return &flips.SimulationResult{}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	for _, body := range []string{
		`{not json`,
		`{"Dataset": "mit-bih-ecg", "Carburetor": true}`, // unknown field
		`{"Dataset": "cifar-zillion"}`,                   // unknown dataset
		`{"Dataset": "mit-bih-ecg", "Aggregation": "bogus"}`,
		`{"Dataset": "mit-bih-ecg", "DeviceProfile": "quantum"}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if got := s.Stats().Accepted; got != 0 {
		t.Fatalf("malformed submissions were accepted: %d", got)
	}
}

func TestSubmitShedsLoadWhenQueueFull(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	s := New(Config{
		Workers:    1,
		QueueDepth: 2,
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			once.Do(started.Done)
			<-release
			return &flips.SimulationResult{}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One job occupies the worker; the 2-deep buffer takes two more.
	submit(t, ts)
	started.Wait()
	accepted, rejected := 0, 0
	for i := 0; i < 5; i++ {
		switch _, err := clientOf(ts).Submit(testCtx(t), validJob); {
		case err == nil:
			accepted++
		case errors.Is(err, ErrShed) && strings.Contains(err.Error(), "429"):
			rejected++
		default:
			t.Fatalf("unexpected refusal: %v", err)
		}
	}
	if accepted != 2 || rejected != 3 {
		t.Fatalf("accepted %d rejected %d, want 2/3", accepted, rejected)
	}
	close(release)
	s.Drain()
	if st := s.Stats(); st.Done != 3 || st.Rejected != 3 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestDrainLosesNoJob pins graceful shutdown: every job accepted before (or
// racing with) Drain reaches a terminal state, new submissions get 503, and
// status endpoints keep serving during the drain.
func TestDrainLosesNoJob(t *testing.T) {
	t.Parallel()
	var ran atomic.Int64
	s := New(Config{
		Workers:    2,
		QueueDepth: 64,
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			time.Sleep(3 * time.Millisecond)
			ran.Add(1)
			return &flips.SimulationResult{}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 20; i++ {
		ids = append(ids, submit(t, ts).ID)
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()

	// Once draining is visible, submissions must 503 — jobs are rejected at
	// the edge, not silently dropped.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := clientOf(ts).Submit(testCtx(t), validJob); !errors.Is(err, ErrShed) || !strings.Contains(err.Error(), "503") {
		t.Fatalf("submit during drain: %v, want ErrShed with the 503", err)
	}

	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung")
	}
	if int(ran.Load()) != len(ids) {
		t.Fatalf("drain lost jobs: ran %d of %d", ran.Load(), len(ids))
	}
	for _, id := range ids {
		if st := getStatus(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s state %q after drain", id, st.State)
		}
	}
}

func TestStreamReplaysAndFollows(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	s := New(Config{
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			onRound(flips.RoundPoint{Round: 1, Accuracy: 0.3})
			onRound(flips.RoundPoint{Round: 2, Accuracy: 0.5})
			<-release // hold the job open so the stream must follow live
			onRound(flips.RoundPoint{Round: 3, Accuracy: 0.7})
			return &flips.SimulationResult{PeakAccuracy: 0.7}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	st := submit(t, ts)
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var events []StreamEvent
	readEvent := func() StreamEvent {
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v (have %d events)", sc.Err(), len(events))
		}
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
		return ev
	}
	if ev := readEvent(); ev.Round == nil || ev.Round.Round != 1 {
		t.Fatalf("event 0 = %+v", ev)
	}
	if ev := readEvent(); ev.Round == nil || ev.Round.Round != 2 {
		t.Fatalf("event 1 = %+v", ev)
	}
	close(release) // now round 3 and the terminal event arrive live
	if ev := readEvent(); ev.Round == nil || ev.Round.Round != 3 {
		t.Fatalf("event 2 = %+v", ev)
	}
	final := readEvent()
	if !final.Done || final.State != StateDone || final.Result == nil {
		t.Fatalf("final = %+v", final)
	}
	if sc.Scan() {
		t.Fatalf("stream continued past terminal event: %s", sc.Text())
	}
}

// TestStreamFollowerWakesPerRound: a follower already connected must receive
// a round when it lands, not when the job ends. The runner is gated, so the
// job is provably still running when the round arrives.
func TestStreamFollowerWakesPerRound(t *testing.T) {
	t.Parallel()
	emit, finish := make(chan struct{}), make(chan struct{})
	s := New(Config{
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			onRound(flips.RoundPoint{Round: 1, Accuracy: 0.3})
			<-emit
			onRound(flips.RoundPoint{Round: 2, Accuracy: 0.5})
			<-finish
			return &flips.SimulationResult{PeakAccuracy: 0.5}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()
	var once sync.Once
	release := func() { once.Do(func() { close(finish) }) }
	defer release() // before Drain, so a failing test does not hang in it

	st := submit(t, ts)
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan StreamEvent)
	go func() {
		defer close(events)
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			var ev StreamEvent
			if json.Unmarshal(sc.Bytes(), &ev) != nil {
				return
			}
			events <- ev
		}
	}()
	next := func(what string) StreamEvent {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream ended before %s", what)
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("no %s within 5s: the follower was not woken", what)
		}
		return StreamEvent{}
	}
	// Round 1 has been read, so the handler is connected and has nothing
	// more to send: round 2 can only reach it through a wake-up.
	if ev := next("round 1"); ev.Round == nil || ev.Round.Round != 1 {
		t.Fatalf("event 0 = %+v", ev)
	}
	close(emit)
	if ev := next("round 2"); ev.Round == nil || ev.Round.Round != 2 {
		t.Fatalf("event 1 = %+v", ev)
	}
	if got := getStatus(t, ts, st.ID); got.State != StateRunning || got.Rounds != 2 {
		t.Fatalf("status when round 2 arrived = %+v, want running with 2 rounds", got)
	}
	release()
	if final := next("terminal event"); !final.Done || final.State != StateDone {
		t.Fatalf("final = %+v", final)
	}
}

func TestStreamUnknownJob404(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()
	for _, path := range []string{"/jobs/job-999999", "/jobs/job-999999/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	t.Parallel()
	now := time.Unix(1000, 0)
	var nowMu sync.Mutex
	clock := func() time.Time {
		nowMu.Lock()
		defer nowMu.Unlock()
		now = now.Add(100 * time.Millisecond)
		return now
	}
	s := New(Config{
		Now: clock,
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			onRound(flips.RoundPoint{Round: 1, ShardsTouched: 4})
			return &flips.SimulationResult{}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		st := submit(t, ts)
		waitTerminal(t, ts, st.ID)
	}
	s.Drain()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"flipsd_up 0", // drained
		"flipsd_queue_depth 0",
		"flipsd_jobs_inflight 0",
		"flipsd_jobs_accepted_total 3",
		"flipsd_jobs_done_total 3",
		"flipsd_jobs_failed_total 0",
		"flipsd_rounds_total 3",
		"flipsd_round_shards_touched_mean 4",
		`flipsd_job_latency_seconds{quantile="0.5"}`,
		`flipsd_job_latency_seconds{quantile="0.99"}`,
		"flipsd_job_latency_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// The fake clock advances 100ms per read, so latencies are positive and
	// the p99 parses as a finite float.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `flipsd_job_latency_seconds{quantile="0.99"}`) {
			var v float64
			if _, err := fmt.Sscanf(strings.Fields(line)[1], "%g", &v); err != nil || v <= 0 {
				t.Fatalf("p99 latency line %q: %v", line, err)
			}
		}
	}
}

// TestMetricsDistExposition pins the distributed-fleet rendering: with a
// DistStats hook configured, /metrics carries the registration gauge and one
// labeled series per shard slot; without it, no dist series appear at all.
func TestMetricsDistExposition(t *testing.T) {
	t.Parallel()
	s := New(Config{
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			return &flips.SimulationResult{}, nil
		},
		DistStats: func() (int, map[uint64][]dist.WorkerStat) {
			return 3, map[uint64][]dist.WorkerStat{1: {
				{Slot: 0, WorkerID: 1, PartyLo: 0, PartyHi: 15, Connected: true, Waves: 7, BytesIn: 9000, BytesOut: 9000, JobBytesIn: 1024, JobBytesOut: 2048},
				{Slot: 1, WorkerID: -1, PartyLo: 15, PartyHi: 30, LagWaves: 2},
			}}
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"flipsd_dist_workers_registered 3",
		`flipsd_dist_worker_connected{job="1",slot="0",worker="1"} 1`,
		`flipsd_dist_worker_connected{job="1",slot="1",worker="-1"} 0`,
		`flipsd_dist_worker_parties{job="1",slot="0",worker="1"} 15`,
		`flipsd_dist_worker_lag_waves{job="1",slot="1",worker="-1"} 2`,
		`flipsd_dist_worker_waves_total{job="1",slot="0",worker="1"} 7`,
		`flipsd_dist_worker_bytes_in_total{job="1",slot="0",worker="1"} 1024`,
		`flipsd_dist_worker_bytes_out_total{job="1",slot="0",worker="1"} 2048`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	plain := New(Config{})
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	resp, err = http.Get(tsPlain.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ = io.ReadAll(resp.Body)
	if strings.Contains(string(body), "flipsd_dist_") {
		t.Fatal("dist series rendered without a DistStats hook")
	}
}

// TestEvictionKeepsActiveJobs pins retention: beyond retainJobs, the oldest
// finished jobs disappear from the index while unfinished ones survive.
func TestEvictionKeepsActiveJobs(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	var blockFirst atomic.Bool
	blockFirst.Store(true)
	s := New(Config{
		Workers:    2,
		QueueDepth: 2 * retainJobs,
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			if blockFirst.CompareAndSwap(true, false) {
				<-release
			}
			return &flips.SimulationResult{}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := submit(t, ts) // runs, blocked
	oldest := submit(t, ts)
	waitTerminal(t, ts, oldest.ID)
	var last JobStatus
	for i := 0; i < retainJobs; i++ {
		last = submit(t, ts)
	}
	waitTerminal(t, ts, last.ID)
	// retainJobs + 2 jobs, and eviction runs at submission: one more makes the
	// two oldest excess. The blocked first job must still be present.
	submit(t, ts)
	if st := getStatus(t, ts, first.ID); st.State != StateRunning {
		t.Fatalf("active job evicted or moved: %+v", st)
	}
	// The oldest *finished* job is gone.
	if _, err := clientOf(ts).Status(testCtx(t), oldest.ID); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("oldest finished job still present: %v", err)
	}
	close(release)
	s.Drain()
}

// TestFollowerThatNeverReadsIsReleased: a stream follower that sends its
// request and then never reads fills its socket buffer; the batch that cannot
// be written within streamWriteTimeout must end the handler and release the
// connection instead of parking a goroutine on the write for as long as the
// peer cares to stay. Serial: it shortens the timeout.
func TestFollowerThatNeverReadsIsReleased(t *testing.T) {
	old := streamWriteTimeout
	streamWriteTimeout = 200 * time.Millisecond
	t.Cleanup(func() { streamWriteTimeout = old })

	// ~25 MB of stream, several times what loopback socket buffers hold.
	const rounds, perLabel = 300, 4096
	release := make(chan struct{})
	s := New(Config{
		Workers: 1,
		Run: func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			wide := make([]float64, perLabel)
			for i := range wide {
				wide[i] = 1 / float64(i+3)
			}
			for i := 1; i <= rounds; i++ {
				onRound(flips.RoundPoint{Round: i, PerLabel: wide})
			}
			<-release
			return &flips.SimulationResult{}, nil
		},
	})
	defer s.Drain()
	defer close(release)
	streamReturned := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/stream") {
			close(streamReturned)
		}
	}))
	defer ts.Close()

	st := submit(t, ts)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /jobs/%s/stream HTTP/1.1\r\nHost: flipsd\r\n\r\n", st.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-streamReturned:
	case <-time.After(30 * time.Second):
		t.Fatal("stream handler still parked on a follower that never reads")
	}
}

// TestDivergedJobFailsVisibly: a job Validate accepts whose model diverges (a
// Laplace scale of 2·Clip/(n·1e-300) overflows the first noised fold) used to
// be answered 202, finish "done", and then serve a 200 with an empty body and
// a stream with no terminal event, because encoding/json refuses NaN. The
// round hook now refuses the round: the job fails, naming the round and the
// stat, and status and stream are well-formed to the end. Real runner.
func TestDivergedJobFailsVisibly(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	c, ctx := clientOf(ts), testCtx(t)
	st, err := c.Submit(ctx, flips.SimulationConfig{
		Dataset: "mit-bih-ecg", Strategy: "random", Rounds: 6, Parties: 12, Seed: 3, Clip: 1, Epsilon: 1e-300,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var rounds []int
	ev, err := c.Follow(ctx, st.ID, func(p flips.RoundPoint) { rounds = append(rounds, p.Round) })
	if err != nil {
		t.Fatalf("follow: %v (rounds %v)", err, rounds)
	}
	const want = "round 4: non-finite MeanLoss (the model diverged)"
	if !ev.Done || ev.State != StateFailed || ev.Error != want || ev.Result != nil {
		t.Fatalf("terminal event = %+v, want failed with %q", ev, want)
	}
	if len(rounds) != 1 || rounds[0] != 2 {
		t.Fatalf("streamed rounds %v, want only round 2, the one evaluated before the divergence", rounds)
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if final.State != StateFailed || final.Error != want || final.Rounds != 1 || final.Result != nil {
		t.Fatalf("status = %+v", final)
	}
	if got := s.Stats(); got.Failed != 1 || got.Done != 0 {
		t.Fatalf("stats = %+v", got)
	}
}
