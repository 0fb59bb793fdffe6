package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flips"
)

// The server as the slow, dead or hostile peer: every scripted server below
// misbehaves in one way, and every Client call must return inside its ctx —
// the 30 s watchdog is the failure mode, never the pass.

// hostile serves script on a loopback listener. Handlers that park do so on
// the request context, which ends when the client hangs up, so Close returns.
func hostile(t *testing.T, script http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(script)
	t.Cleanup(ts.Close)
	return clientOf(ts)
}

// watchdog runs call and fails the test if it is still running after 30 s.
func watchdog(t *testing.T, call func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		call()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("client call still blocked after 30s: a peer held it past its ctx")
	}
}

func shortCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	t.Cleanup(cancel)
	return ctx
}

func roundLine(w http.ResponseWriter, round int) {
	fmt.Fprintf(w, `{"Round":{"Round":%d,"Accuracy":0.5}}`+"\n", round)
}

func TestSubmitToAServerThatNeverAnswers(t *testing.T) {
	t.Parallel()
	c := hostile(t, func(w http.ResponseWriter, r *http.Request) {
		// Reading the body first lets net/http watch the connection, so the
		// request context ends when the client gives up.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	watchdog(t, func() {
		start := time.Now()
		_, err := c.Submit(shortCtx(t), validJob)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Submit = %v, want the ctx deadline", err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("Submit returned after %s, far past its 300ms ctx", took)
		}
	})
}

func TestFollowAStreamThatGoesSilent(t *testing.T) {
	t.Parallel()
	c := hostile(t, func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/stream") {
			writeJSON(w, http.StatusOK, JobStatus{ID: "job-000001", State: StateRunning})
			return
		}
		roundLine(w, 1)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	watchdog(t, func() {
		rounds := 0
		_, err := c.Follow(shortCtx(t), "job-000001", func(flips.RoundPoint) { rounds++ })
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Follow = %v, want the ctx deadline", err)
		}
		if rounds != 1 {
			t.Errorf("onRound saw %d rounds before the silence, want 1", rounds)
		}
	})
}

// TestFollowReconnectsPastATruncatedStream: the first connection ends after
// two rounds with no terminal event; the status poll says the job still runs;
// the reconnect is served the full replay. onRound sees rounds 1…5 once each.
func TestFollowReconnectsPastATruncatedStream(t *testing.T) {
	t.Parallel()
	var streams atomic.Int32
	c := hostile(t, func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/stream") {
			writeJSON(w, http.StatusOK, JobStatus{ID: "job-000001", State: StateRunning})
			return
		}
		if streams.Add(1) == 1 {
			roundLine(w, 1)
			roundLine(w, 2)
			return
		}
		for i := 1; i <= 5; i++ {
			roundLine(w, i)
		}
		fmt.Fprintln(w, `{"Done":true,"State":"done","Result":{"PeakAccuracy":0.5}}`)
	})
	watchdog(t, func() {
		var got []int
		ev, err := c.Follow(testCtx(t), "job-000001", func(p flips.RoundPoint) { got = append(got, p.Round) })
		if err != nil || ev.State != StateDone || ev.Result == nil {
			t.Errorf("Follow = %+v, %v", ev, err)
		}
		if fmt.Sprint(got) != "[1 2 3 4 5]" {
			t.Errorf("onRound saw %v, want each of 1…5 exactly once", got)
		}
		if n := streams.Load(); n != 2 {
			t.Errorf("%d stream connections, want 2", n)
		}
	})
}

// TestFollowFallsBackToTheStatusPoll: a stream endpoint that will not open
// costs one poll, and a job already terminal is answered from it.
func TestFollowFallsBackToTheStatusPoll(t *testing.T) {
	t.Parallel()
	c := hostile(t, func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			writeError(w, http.StatusInternalServerError, "stream broken")
			return
		}
		writeJSON(w, http.StatusOK, JobStatus{ID: "job-000001", State: StateFailed, Error: "engine said no"})
	})
	watchdog(t, func() {
		ev, err := c.Follow(testCtx(t), "job-000001", nil)
		if err != nil || !ev.Done || ev.State != StateFailed || ev.Error != "engine said no" {
			t.Errorf("Follow = %+v, %v", ev, err)
		}
	})
}

// TestFollowGivesUpAfterItsRetries: nothing ever answers usefully; Follow
// spends its named retry budget (well inside ctx) and reports the last cause.
func TestFollowGivesUpAfterItsRetries(t *testing.T) {
	t.Parallel()
	var streams atomic.Int32
	c := hostile(t, func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			streams.Add(1)
		}
		writeError(w, http.StatusNotFound, "no such job")
	})
	watchdog(t, func() {
		_, err := c.Follow(testCtx(t), "job-999999", nil)
		if err == nil || !strings.Contains(err.Error(), "no such job") {
			t.Errorf("Follow = %v, want the server's refusal", err)
		}
		if n := streams.Load(); n != followRetries+1 {
			t.Errorf("%d stream attempts, want %d", n, followRetries+1)
		}
	})
}

func TestSubmitRefusals(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		code int
		shed bool
		text string
	}{
		{http.StatusTooManyRequests, true, "job queue full (64 deep): retry later"},
		{http.StatusServiceUnavailable, true, "draining: no new jobs accepted"},
		{http.StatusBadRequest, false, `flips: unknown dataset "cifar-zillion"`},
	} {
		c := hostile(t, func(w http.ResponseWriter, r *http.Request) { writeError(w, tc.code, "%s", tc.text) })
		watchdog(t, func() {
			_, err := c.Submit(testCtx(t), validJob)
			if err == nil || errors.Is(err, ErrShed) != tc.shed || !strings.Contains(err.Error(), tc.text) {
				t.Errorf("%d: Submit = %v, want shed=%v carrying %q", tc.code, err, tc.shed, tc.text)
			}
		})
	}
}

// TestFollowLineHandling: blank and malformed lines are skipped, and a 2 MiB
// line — a terminal event carrying a long history is that big — is read whole.
func TestFollowLineHandling(t *testing.T) {
	t.Parallel()
	long := strings.Repeat("x", 2<<20)
	c := hostile(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "\n{not json\n")
		roundLine(w, 1)
		fmt.Fprint(w, `{"Round":`+"\n")
		roundLine(w, 2)
		fmt.Fprintf(w, `{"Done":true,"State":"failed","Error":%q}`+"\n", long)
	})
	watchdog(t, func() {
		var got []int
		ev, err := c.Follow(testCtx(t), "job-000001", func(p flips.RoundPoint) { got = append(got, p.Round) })
		if err != nil || ev.State != StateFailed || ev.Error != long {
			t.Errorf("Follow = state %q, %d-byte error, %v", ev.State, len(ev.Error), err)
		}
		if fmt.Sprint(got) != "[1 2]" {
			t.Errorf("onRound saw %v, want [1 2]", got)
		}
	})
}
