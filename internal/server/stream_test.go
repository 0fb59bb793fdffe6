package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"flips"
)

// referenceStream is the job stream as encoding/json writes it: one
// StreamEvent line per logged round, then the terminal event.
func referenceStream(t *testing.T, j *job) []byte {
	t.Helper()
	j.mu.Lock()
	rounds, state, errMsg, result := j.rounds, j.state, j.errMsg, j.result
	j.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range rounds {
		if err := enc.Encode(StreamEvent{Round: &rounds[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(StreamEvent{Done: true, State: state, Error: errMsg, Result: result}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRealJobBytesMatchEncodingJSON: a real job's stream, its GET /jobs/{id}
// body, the listing and a 404 body are byte for byte what encoding/json
// writes for the same values. The result's History is long enough to be
// written through in several chunks.
func TestRealJobBytesMatchEncodingJSON(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	st, err := clientOf(ts).Submit(testCtx(t), flips.SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "random", Rounds: 120, Parties: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, stream := getBody(t, ts.URL+"/jobs/"+st.ID+"/stream")
	j := s.job(st.ID)
	if want := referenceStream(t, j); !bytes.Equal(stream, want) {
		t.Fatalf("stream differs from encoding/json's (%d vs %d bytes)", len(stream), len(want))
	}
	if len(stream) < 3*streamChunk {
		t.Fatalf("stream of %d bytes does not exercise the write-through", len(stream))
	}
	code, body := getBody(t, ts.URL+"/jobs/"+st.ID)
	if want := encodeJSON(t, j.status()); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("status %d, body differs from encoding/json's:\n got %.300q\nwant %.300q", code, body, want)
	}
	listed := j.status()
	listed.Result = nil
	if _, body := getBody(t, ts.URL+"/jobs"); !bytes.Equal(body, encodeJSON(t, []JobStatus{listed})) {
		t.Fatalf("listing differs from encoding/json's: %q", body)
	}
	code, body = getBody(t, ts.URL+"/jobs/job-<1>")
	if want := encodeJSON(t, map[string]string{"error": `no such job "job-<1>"`}); code != http.StatusNotFound || !bytes.Equal(body, want) {
		t.Fatalf("404 body %q, want %q", body, want)
	}
}

// TestStreamEndsAtAnUnencodableRound: a round whose PerLabel holds NaN (a
// label absent from the test set) has no JSON encoding. The stream carries
// every round before it and ends there, as it did when encoding/json refused
// the line; GET /jobs/{id} answers 200 with an empty body.
func TestStreamEndsAtAnUnencodableRound(t *testing.T) {
	t.Parallel()
	s := New(Config{
		Run: func(_ context.Context, cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			h := []flips.RoundPoint{
				{Round: 1, Accuracy: 0.25, PerLabel: []float64{0.5, 0}},
				{Round: 2, Accuracy: 0.5, PerLabel: []float64{0.5, 1}},
				{Round: 3, Accuracy: 0.5, PerLabel: []float64{math.NaN(), 1}},
			}
			for _, p := range h {
				onRound(p)
			}
			return &flips.SimulationResult{History: h, PeakAccuracy: 0.5}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	st := submit(t, ts)
	waitDone(t, s.job(st.ID))
	_, stream := getBody(t, ts.URL+"/jobs/"+st.ID+"/stream")
	j := s.job(st.ID)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := range j.rounds {
		if enc.Encode(StreamEvent{Round: &j.rounds[i]}) != nil {
			break
		}
	}
	if !bytes.Equal(stream, want.Bytes()) || bytes.Count(stream, []byte("\n")) != 2 {
		t.Fatalf("stream %q, want the two encodable rounds %q", stream, want.Bytes())
	}
	if code, body := getBody(t, ts.URL+"/jobs/"+st.ID); code != http.StatusOK || len(body) != 0 {
		t.Fatalf("status %d body %q, want 200 and empty", code, body)
	}
}

func waitDone(t *testing.T, j *job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatal("job not terminal within 30s")
	}
}

// smallSends is a listener whose connections have a fixed 4 KB send buffer,
// so a stream backs up into its handler once the follower stops reading
// instead of into an autotuned (on loopback, megabyte) socket buffer.
type smallSends struct{ net.Listener }

func (l smallSends) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestStreamFanOut: 64 followers of one real job. Forty read from the start,
// twenty-three connect and never read, and one connects after the job is
// terminal. Every follower that reads gets the same bytes, equal to
// encoding/json's for that job. The silent followers' streams back up into
// their handlers (small socket buffers on both ends), and the job still runs
// about as fast as the same job with no follower: a follower that held the
// engine back would hold it for streamWriteTimeout (30 s).
func TestStreamFanOut(t *testing.T) {
	t.Parallel()
	const readers, silent = 40, 23
	job := flips.SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "random", Rounds: 400, Parties: 6, Seed: 11}
	if testing.Short() {
		job.Rounds = 200
	}
	s := New(Config{Workers: 1})
	var returned atomic.Int32
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/stream") {
			returned.Add(1)
		}
	}))
	ts.Listener = smallSends{ts.Listener}
	ts.Start()
	defer ts.Close()
	defer s.Drain()
	c, ctx := clientOf(ts), testCtx(t)
	runTime := func(id string) time.Duration {
		waitDone(t, s.job(id))
		st := s.job(id).status()
		if st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
		return st.FinishedAt.Sub(st.StartedAt)
	}

	alone, err := c.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	aloneRun := runTime(alone.ID)

	st, err := c.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	// A receive buffer shrunk before the handshake keeps the advertised
	// window small.
	small := net.Dialer{Control: func(_, _ string, c syscall.RawConn) error {
		var err error
		if cerr := c.Control(func(fd uintptr) {
			err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 1<<10)
		}); cerr != nil {
			return cerr
		}
		return err
	}}
	var conns []net.Conn
	defer func() {
		for _, conn := range conns {
			conn.Close() // ends the parked handlers, so ts.Close returns
		}
	}()
	for i := 0; i < silent; i++ {
		conn, err := small.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		if _, err := fmt.Fprintf(conn, "GET /jobs/%s/stream HTTP/1.1\r\nHost: flipsd\r\n\r\n", st.ID); err != nil {
			t.Fatal(err)
		}
	}
	streams := make([][]byte, readers+1)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if streams[i], err = io.ReadAll(resp.Body); err != nil {
				t.Error(err)
			}
		}(i)
	}
	fanRun := runTime(st.ID)
	_, streams[readers] = getBody(t, ts.URL+"/jobs/"+st.ID+"/stream")
	wg.Wait()

	want := referenceStream(t, s.job(st.ID))
	for i, got := range streams {
		if !bytes.Equal(got, want) {
			t.Fatalf("follower %d read %d bytes, differing from encoding/json's %d", i, len(got), len(want))
		}
	}
	if n := int(returned.Load()); n != readers+1 {
		t.Fatalf("%d stream handlers returned, want the %d that read: the silent followers' streams did not back up", n, readers+1)
	}
	if bound := 4*aloneRun + 2*time.Second; fanRun > bound {
		t.Fatalf("job ran %s with %d followers, %s alone (bound %s)", fanRun, readers+silent+1, aloneRun, bound)
	}
}

// BenchmarkStreamFollow: a runner that emits 5,000 rounds as fast as it can
// (fleet_async's event count), followed by one reader over loopback HTTP from
// submission to the terminal event. One op is one job: submit, stream, and
// the terminal event's 5,000-round History.
func BenchmarkStreamFollow(b *testing.B) {
	const rounds = 5000
	history := make([]flips.RoundPoint, rounds)
	for i := range history {
		history[i] = flips.RoundPoint{
			Round: i + 1, Accuracy: 0.5 + float64(i)/(4*rounds), PerLabel: []float64{0.9, 0.8, 0.7, 0.6, 1.0 / 3},
			Invited: 42, Completed: 40, CommBytes: 42 * 1320, MeanLoss: 1 / float64(i+2),
			RoundTime: 1.5 + float64(i%7)/10, SimTime: 1.7 * float64(i+1), ShardsTouched: 30,
		}
	}
	s := New(Config{
		Workers: 1,
		Run: func(_ context.Context, cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error) {
			for _, p := range history {
				onRound(p)
			}
			return &flips.SimulationResult{History: history, PeakAccuracy: 0.75, RoundsToTarget: -1, TimeToTarget: -1, SimTime: history[rounds-1].SimTime}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()
	c := clientOf(ts)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.Submit(ctx, validJob)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n < rounds*200 {
			b.Fatalf("read %d bytes: %v", n, err)
		}
	}
}
