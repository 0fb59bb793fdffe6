package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"flips"
)

// Client is the one way to submit a job to a flipsd job server and follow it
// to its outcome. Every request carries the caller's ctx, so one deadline
// bounds connect, response headers and every body read: a server that accepts
// and goes silent costs the caller its deadline, never more. HTTP nil uses
// http.DefaultClient; leave its Timeout zero — a stream outlives any fixed one.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8080"
	HTTP *http.Client
}

// ErrShed reports a request the server shed at the edge — for a submission,
// without ever owning the job: 429 (queue full) or 503 (draining). Retry later
// or elsewhere.
var ErrShed = errors.New("server: request shed")

const (
	// Follow reconnects at most followRetries times, followRetryDelay apart,
	// after a stream that would not open or ended without its terminal event.
	followRetries    = 4
	followRetryDelay = 250 * time.Millisecond
	// maxBodyBytes bounds one stream line or response body; the terminal event
	// carries the whole result history, so it is generous.
	maxBodyBytes = 64 << 20
)

// do sends one request. A status other than want is an error carrying the
// server's own explanation (the {"error": ...} body writeError sends).
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, want int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.Base, "/")+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cmp.Or(c.HTTP, http.DefaultClient).Do(req)
	if err != nil || resp.StatusCode == want {
		return resp, err
	}
	defer resp.Body.Close()
	var refusal struct{ Error string }
	_ = json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&refusal)
	err = fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, cmp.Or(refusal.Error, http.StatusText(resp.StatusCode)))
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		err = fmt.Errorf("%w: %w", ErrShed, err)
	}
	return nil, err
}

// doJSON is do for a request answered by one JSON value.
func (c *Client) doJSON(ctx context.Context, method, path string, body io.Reader, want int, out any) error {
	resp, err := c.do(ctx, method, path, body, want)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decode answer: %w", method, path, err)
	}
	return nil
}

// Submit posts one job and returns its accepted status (the ID is in it). A
// 429 or 503 is ErrShed; any other refusal — a 400 for a config the decoder
// rejects — carries the server's error text.
func (c *Client) Submit(ctx context.Context, cfg flips.SimulationConfig) (st JobStatus, err error) {
	body, err := json.Marshal(cfg)
	if err != nil {
		return st, fmt.Errorf("server: encode job: %w", err)
	}
	err = c.doJSON(ctx, http.MethodPost, "/jobs", bytes.NewReader(body), http.StatusAccepted, &st)
	if err == nil && st.ID == "" {
		err = errors.New("server: accepted without a job id")
	}
	return st, err
}

// Status fetches GET /jobs/{id}.
func (c *Client) Status(ctx context.Context, id string) (st JobStatus, err error) {
	err = c.doJSON(ctx, http.MethodGet, "/jobs/"+id, nil, http.StatusOK, &st)
	return st, err
}

// Follow reads the job's stream to its terminal event and returns it. onRound,
// which may be nil, sees each round exactly once, in order: a broken stream
// costs one Status poll (a job already terminal is answered from it, its
// unstreamed rounds in Result.History) and a reconnect, and the rounds a
// reconnect's replay repeats are skipped. An error means the outcome was not
// observed within ctx and the retry bounds.
func (c *Client) Follow(ctx context.Context, id string, onRound func(flips.RoundPoint)) (StreamEvent, error) {
	seen := 0 // round events delivered so far, across connections
	for attempt := 0; ; attempt++ {
		ev, err := c.followOnce(ctx, id, &seen, onRound)
		if err == nil {
			return ev, nil
		}
		if st, serr := c.Status(ctx, id); serr == nil && (st.State == StateDone || st.State == StateFailed) {
			return StreamEvent{Done: true, State: st.State, Error: st.Error, Result: st.Result}, nil
		}
		if cerr := ctx.Err(); cerr != nil || attempt == followRetries {
			return StreamEvent{}, fmt.Errorf("server: outcome of %s not observed: %w", id, cmp.Or(cerr, err))
		}
		select {
		case <-ctx.Done():
		case <-time.After(followRetryDelay):
		}
	}
}

// followOnce is one connection of Follow. Blank and malformed lines are
// skipped; so are the first *seen rounds, which an earlier connection delivered.
func (c *Client) followOnce(ctx context.Context, id string, seen *int, onRound func(flips.RoundPoint)) (StreamEvent, error) {
	resp, err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/stream", nil, http.StatusOK)
	if err != nil {
		return StreamEvent{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxBodyBytes)
	for n := 0; sc.Scan(); {
		var ev StreamEvent
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		if ev.Done {
			return ev, nil
		}
		if ev.Round == nil {
			continue
		}
		if n++; n > *seen {
			*seen = n
			if onRound != nil {
				onRound(*ev.Round)
			}
		}
	}
	return StreamEvent{}, cmp.Or(sc.Err(), errors.New("stream ended without a terminal event"))
}
