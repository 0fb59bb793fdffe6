// Package server is the multi-tenant FLIPS simulation job server: the HTTP
// surface flipsd exposes so real clients can submit FL simulation jobs over
// the network instead of linking the library. It mirrors the aggregator-side
// middleware deployment of the paper (parties and operators reach FLIPS as a
// service) scaled to the repo's heavy-traffic north star:
//
//	POST /jobs            submit a flips.SimulationConfig (JSON) → 202 + id
//	GET  /jobs            list jobs (newest last)
//	GET  /jobs/{id}       job status, result when finished
//	GET  /jobs/{id}/stream  per-round RoundPoints as NDJSON
//	DELETE /jobs/{id}     cancel a queued or running job
//	GET  /metrics         Prometheus text: queue depth, in-flight, arrival
//	                      rate, p50/p99 job latency, shard locality,
//	                      refusals by reason
//	GET  /healthz         "ok" while accepting, "draining" during shutdown
//
// A submission is admitted by cost: a malformed job, or one above the
// experiment layer's per-job bounds, is refused with 400, and one whose work
// (SimulationConfig.Cost) would lift the summed work of the queued and
// running jobs above workBudget is refused with 429. Jobs run on a bounded
// parallel.Queue: submission never blocks — a full buffer answers 429 so
// load sheds at the edge — and Drain implements
// graceful shutdown: new submissions get 503 while every job already
// accepted (queued or running) runs to completion, for at most drainTimeout;
// whatever is left then is cancelled. An orderly SIGTERM never loses a job:
// each ends done, failed or cancelled. A cancelled job ends in the cancelled
// state: a queued one never runs, a running one stops before its next round.
// Client (client.go) is the one submit-and-follow client of these endpoints.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"flips"
	"flips/internal/dist"
	"flips/internal/experiment"
	"flips/internal/metrics"
	"flips/internal/parallel"
)

// Config tunes the job server. The zero value serves with sane defaults.
type Config struct {
	// QueueDepth bounds jobs queued but not yet running (default 64).
	// Submissions beyond it are rejected with 429.
	QueueDepth int
	// Workers is the number of jobs run concurrently (default GOMAXPROCS).
	Workers int
	// JobParallelism caps each job's internal worker pool when the
	// submitted config leaves Parallelism at 0 (default 1). With W workers
	// at parallelism 1, W concurrent jobs saturate W cores without
	// oversubscribing the host — per-tenant fairness over per-job speed. A
	// tenant may still request more via its own config.
	JobParallelism int
	// Now is the clock (default time.Now); tests inject a fake.
	Now func() time.Time
	// Run executes one job (default flips.RunSimulationStream) until ctx,
	// which DELETE /jobs/{id} cancels, is done; tests inject a fake to
	// control timing and failure. flipsd swaps in the distributed runner
	// when shard workers are configured.
	Run func(ctx context.Context, cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error)
	// DistStats, when non-nil, snapshots the distributed shard-worker fleet
	// for /metrics: how many workers are registered, and every recent job's
	// shard slots keyed by the runner's job sequence number
	// (dist.Coordinator.WorkerCount and flips.DistRunner.WorkerStats). Nil
	// keeps the distributed gauges off the exposition.
	DistStats func() (registered int, jobs map[uint64][]dist.WorkerStat)
}

const (
	// retainJobs bounds the jobs kept for status queries; the oldest finished
	// jobs are evicted beyond it.
	retainJobs = 4096
	// latencyWindow is how many recent job latencies feed the p50/p99
	// quantiles on /metrics.
	latencyWindow = 1024
)

// workBudget bounds the summed work term (SimulationConfig.Cost, in
// parameter-sample steps) of the jobs queued and running at once. It is five
// of the largest jobs the per-job bound admits (2·10¹²), a few hours of one
// core's training at ≈1 ns a step; a submission that would lift the sum
// above it is refused with 429 until running jobs finish.
const workBudget = 1e13

// Refusal reasons, the label values of flipsd_jobs_refused_total.
const (
	refusedInvalid   = iota // 400: malformed, or Validate refused it
	refusedOverBound        // 400: above a per-job data, work or byte bound
	refusedQueueFull        // 429: the queue is full
	refusedBudget           // 429: over workBudget
	refusedDraining         // 503: the server is draining
	refusalReasons
)

var refusalNames = [refusalReasons]string{"invalid", "over_bound", "queue_full", "budget", "draining"}

// streamWriteTimeout bounds the write of one flushed batch of a job stream. A
// follower that stops reading fills its socket buffer; the batch that cannot
// be written within the bound ends the stream and releases the connection. A
// variable only so the test can shorten it.
var streamWriteTimeout = 30 * time.Second

// streamHold is how long a job stream waits after each flush before it takes
// the next batch, so the rounds that land meanwhile go out in one write and
// one flush rather than one each. The first batch is flushed at once; the
// job's terminal state and the follower hanging up cut a hold short.
const streamHold = 2 * time.Millisecond

// drainTimeout bounds how long Drain lets accepted jobs run on before it
// cancels every one still queued or running. A variable only so the test can
// shorten it.
var drainTimeout = 2 * time.Minute

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobParallelism <= 0 {
		c.JobParallelism = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Run == nil {
		c.Run = flips.RunSimulationStream
	}
	return c
}

// Job states. Done, failed and cancelled are terminal.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminal reports whether a job in state has its outcome.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// job is one submitted simulation with its streaming round log. cond (on mu)
// wakes stream handlers whenever a round lands or the state turns terminal;
// done is closed when the state turns terminal. An entry of rounds is never
// changed once appended, so a follower may read rounds[:n] outside mu.
type job struct {
	id     string
	cfg    flips.SimulationConfig
	work   float64         // cfg.Cost(), held against workBudget until the job ends
	ctx    context.Context // the run's; cancel ends it
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	cond      *sync.Cond
	state     string
	submitted time.Time
	started   time.Time
	finished  time.Time
	rounds    []flips.RoundPoint
	result    *flips.SimulationResult
	errMsg    string
}

func (j *job) terminalLocked() bool { return terminal(j.state) }

// JobStatus is the wire shape of GET /jobs/{id}.
type JobStatus struct {
	ID          string
	State       string
	SubmittedAt time.Time
	// StartedAt / FinishedAt are zero until the job reaches that phase.
	StartedAt  time.Time
	FinishedAt time.Time
	// Rounds counts the evaluated rounds streamed so far.
	Rounds int
	Error  string                  `json:",omitempty"`
	Result *flips.SimulationResult `json:",omitempty"`
}

// StreamEvent is one NDJSON line of a job stream: either a round, or the
// terminal event carrying the job's outcome.
type StreamEvent struct {
	Round  *flips.RoundPoint       `json:",omitempty"`
	Done   bool                    `json:",omitempty"`
	State  string                  `json:",omitempty"`
	Error  string                  `json:",omitempty"`
	Result *flips.SimulationResult `json:",omitempty"`
}

// Snapshot is a point-in-time counter read, for banners and tests. A job in
// a terminal state is counted in Done, Failed or Cancelled. Rejected counts
// the submissions shed with 429: queue full or over the work budget.
type Snapshot struct {
	Accepted, Rejected, Done, Failed, Cancelled int
}

// Server is the job server. Create with New, expose with Handler, shut down
// with Drain.
type Server struct {
	cfg   Config
	queue *parallel.Queue
	mux   *http.ServeMux

	// mu guards the fields below. Where a job's state changes with the
	// counters, mu is taken before the job's own mu, and the counters move
	// before the state is published.
	mu             sync.Mutex
	jobs           map[string]*job
	order          []string // submission order, oldest first
	nextID         int
	draining       bool
	started        time.Time
	inFlight       int
	accepted       int
	refused        [refusalReasons]int
	work           float64 // summed work of the queued and running jobs
	doneCount      int
	failedCount    int
	cancelledCount int
	arrivals       []time.Time // ring of recent arrival times for the rate gauge
	arrivalNext    int
	latency        *metrics.Window
	// Running sums behind the latency summary's _sum/_count and the
	// shard-locality mean.
	latSum      float64
	latCount    int
	shardSum    float64
	shardCount  int
	roundsTotal int
}

// New starts a job server (its worker pool runs immediately).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    parallel.NewQueue(cfg.Workers, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		arrivals: make([]time.Time, 0, 4096),
		latency:  metrics.NewWindow(latencyWindow),
		started:  cfg.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops accepting jobs (POST answers 503) and blocks until every job
// already accepted has finished. Once drainTimeout has passed it cancels
// every job still queued or running, then waits for their runners: those jobs
// end cancelled and are counted. Status, stream and metrics endpoints keep
// serving throughout, so clients can collect results during the drain.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	bound := time.AfterFunc(drainTimeout, s.cancelAll)
	defer bound.Stop()
	s.queue.Drain()
}

// cancelAll cancels every job not yet in a terminal state.
func (s *Server) cancelAll() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		s.cancel(j)
	}
}

// Stats reads the counters.
func (s *Server) Stats() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		Accepted:  s.accepted,
		Rejected:  s.refused[refusedQueueFull] + s.refused[refusedBudget],
		Done:      s.doneCount,
		Failed:    s.failedCount,
		Cancelled: s.cancelledCount,
	}
}

// writeJSON answers with one JSON body that put appends. A body put cannot
// encode is empty, as encoding/json leaves it.
func writeJSON(w http.ResponseWriter, code int, put func(*jsonWriter) error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	jw := newJSONWriter(w)
	_ = put(&jw)
	_ = jw.close()
}

func writeStatus(w http.ResponseWriter, code int, st JobStatus) {
	writeJSON(w, code, func(jw *jsonWriter) error { return jw.status(&st) })
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	writeJSON(w, code, func(jw *jsonWriter) error { return jw.errorBody(msg) })
}

// refuse counts a refused submission and answers it.
func (s *Server) refuse(w http.ResponseWriter, reason, code int, format string, args ...any) {
	s.mu.Lock()
	s.refused[reason]++
	s.mu.Unlock()
	writeError(w, code, format, args...)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	cfg, err := flips.DecodeSimulationConfig(http.MaxBytesReader(w, r.Body, 1<<20))
	var work float64
	if err == nil {
		if cfg.Parallelism == 0 {
			cfg.Parallelism = s.cfg.JobParallelism
		}
		work, err = cfg.Cost()
	}
	if err != nil {
		reason := refusedInvalid
		if errors.Is(err, experiment.ErrOverBound) {
			reason = refusedOverBound
		}
		s.refuse(w, reason, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.refuse(w, refusedDraining, http.StatusServiceUnavailable, "draining: no new jobs accepted")
		return
	}
	if s.work+work > workBudget {
		held := s.work
		s.mu.Unlock()
		s.refuse(w, refusedBudget, http.StatusTooManyRequests,
			"work budget: queued and running jobs hold %.3g of the %.0e work budget and this job needs %.3g: retry later", held, float64(workBudget), work)
		return
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		cfg:       cfg,
		work:      work,
		state:     StateQueued,
		submitted: s.cfg.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	j.done = make(chan struct{})
	j.ctx, j.cancel = context.WithCancel(context.Background())
	// Registration and queue submission happen under s.mu so a concurrent
	// Drain cannot slip between them: either the submit wins and the drain
	// waits for this job, or the drain wins and the submit is rejected.
	if !s.queue.TrySubmit(func() { s.runJob(j) }) {
		j.cancel()
		s.mu.Unlock()
		s.refuse(w, refusedQueueFull, http.StatusTooManyRequests, "job queue full (%d deep): retry later", s.cfg.QueueDepth)
		return
	}
	s.work += work
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.accepted++
	s.recordArrivalLocked(j.submitted)
	s.evictLocked()
	s.mu.Unlock()

	writeStatus(w, http.StatusAccepted, JobStatus{ID: j.id, State: StateQueued, SubmittedAt: j.submitted})
}

// recordArrivalLocked appends to the arrival ring (capacity fixed at the
// backing array; oldest overwritten) for the sliding arrivals/sec gauge.
func (s *Server) recordArrivalLocked(t time.Time) {
	if len(s.arrivals) < cap(s.arrivals) {
		s.arrivals = append(s.arrivals, t)
		return
	}
	s.arrivals[s.arrivalNext] = t
	s.arrivalNext = (s.arrivalNext + 1) % len(s.arrivals)
}

// evictLocked drops the oldest finished jobs beyond the retention bound.
// Queued/running jobs are never evicted.
func (s *Server) evictLocked() {
	if len(s.jobs) <= retainJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.jobs) - retainJobs
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil {
			j.mu.Lock()
			terminal := j.terminalLocked()
			j.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// runJob executes one job on a queue worker, streaming rounds into the job
// log and folding service metrics on completion. A job cancelled while queued
// is already terminal and is skipped.
func (s *Server) runJob(j *job) {
	start := s.cfg.Now()
	s.mu.Lock()
	j.mu.Lock()
	if j.state == StateCancelled {
		j.mu.Unlock()
		s.mu.Unlock()
		return
	}
	s.inFlight++
	j.state = StateRunning
	j.started = start
	j.cond.Broadcast()
	j.mu.Unlock()
	s.mu.Unlock()

	res, err := s.runProtected(j)
	j.cancel()

	finished := s.cfg.Now()
	state := StateDone
	switch {
	case errors.Is(err, context.Canceled):
		state = StateCancelled
	case err != nil:
		state = StateFailed
	}
	j.mu.Lock()
	rounds := len(j.rounds) // the runner has returned: no round lands after this
	j.mu.Unlock()

	// Job latency is submission→completion (queue wait included): the
	// number a tenant experiences and the one the SLO smoke gates on.
	latency := finished.Sub(j.submitted).Seconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inFlight--
	s.endLocked(j, state)
	s.latency.Push(latency)
	s.latSum += latency
	s.latCount++
	s.roundsTotal += rounds

	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = finished
	j.state = state
	if err != nil {
		j.errMsg = err.Error()
	} else {
		j.result = res
	}
	close(j.done)
	j.cond.Broadcast()
}

// endLocked counts job j reaching the terminal state and releases its work
// from the budget.
func (s *Server) endLocked(j *job, state string) {
	s.work -= j.work
	switch state {
	case StateDone:
		s.doneCount++
	case StateFailed:
		s.failedCount++
	case StateCancelled:
		s.cancelledCount++
	}
}

// cancel cancels job j and returns its status after. A queued job turns
// cancelled at once and is skipped when a worker dequeues it; a running job
// has its context cancelled and turns cancelled when its runner returns,
// which fl.Run does before its next round. ok is false for a job that had
// already finished done or failed.
func (s *Server) cancel(j *job) (st JobStatus, ok bool) {
	now := s.cfg.Now()
	s.mu.Lock()
	j.mu.Lock()
	state := j.state
	if state == StateQueued {
		s.endLocked(j, StateCancelled)
		j.state, j.finished, j.errMsg = StateCancelled, now, context.Canceled.Error()
		close(j.done)
		j.cond.Broadcast()
	}
	j.mu.Unlock()
	s.mu.Unlock()
	if !terminal(state) {
		j.cancel()
	}
	return j.status(), !terminal(state) || state == StateCancelled
}

// handleCancel serves DELETE /jobs/{id}: 200 with the job's status once the
// cancel is in (a running job may still read running until it stops), 404
// for an unknown job, 409 for one that already finished done or failed.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	st, ok := s.cancel(j)
	if !ok {
		writeError(w, http.StatusConflict, "job %s already %s", st.ID, st.State)
		return
	}
	writeStatus(w, http.StatusOK, st)
}

// runProtected invokes the runner with a panic barrier so one buggy job
// marks itself failed instead of poisoning the worker pool. A round with a
// non-finite stat never enters the job's log — Validate cannot foresee a model
// that diverges, and encoding/json cannot carry NaN — and fails the job,
// naming the round and the stat, whatever the runner then returns.
func (s *Server) runProtected(j *job) (res *flips.SimulationResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("job panic: %v", r)
		}
	}()
	var diverged error
	res, err = s.cfg.Run(j.ctx, j.cfg, func(p flips.RoundPoint) {
		for i, v := range [...]float64{p.Accuracy, p.MeanLoss, p.RoundTime, p.SimTime} {
			if diverged == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				stat := [...]string{"Accuracy", "MeanLoss", "RoundTime", "SimTime"}[i]
				diverged = fmt.Errorf("round %d: non-finite %s (the model diverged)", p.Round, stat)
			}
		}
		if diverged != nil {
			return
		}
		p.PerLabel = append([]float64(nil), p.PerLabel...)
		j.mu.Lock()
		j.rounds = append(j.rounds, p)
		// Wake followers now, not at the terminal state change. A follower
		// takes everything appended since its last read, so rounds landing
		// faster than it writes coalesce into one batch and one flush.
		j.cond.Broadcast()
		shards := p.ShardsTouched
		j.mu.Unlock()
		s.mu.Lock()
		s.shardSum += float64(shards)
		s.shardCount++
		s.mu.Unlock()
	})
	if diverged != nil {
		return nil, diverged
	}
	return res, err
}

func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		State:       j.state,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Rounds:      len(j.rounds),
		Error:       j.errMsg,
		Result:      j.result,
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeStatus(w, http.StatusOK, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j := s.job(id); j != nil {
			out = append(out, j.status())
		}
	}
	writeJSON(w, http.StatusOK, func(jw *jsonWriter) error { return jw.list(out) })
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleStream replays the job's round log and then follows it live, one
// StreamEvent per NDJSON line, ending with the terminal event. Clients
// connecting at any point of the job's life observe the complete round
// sequence. Each wake writes everything appended since the last one as one
// batch and flushes it; after a flush the handler holds for streamHold, so a
// job that rounds faster than that reaches its follower in a few large writes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	jw := newJSONWriter(w)
	defer jw.close()

	// A canceled request must wake a handler parked in cond.Wait; holding
	// j.mu for the broadcast pairs it with the wait-loop's ctx re-check.
	ctx := r.Context()
	stopWake := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.cond.Broadcast()
	})
	defer stopWake()

	var hold *time.Timer
	next := 0
	for {
		j.mu.Lock()
		for next >= len(j.rounds) && !j.terminalLocked() && ctx.Err() == nil {
			j.cond.Wait()
		}
		// The batch aliases the log: appended entries never change, and the
		// capacity bound keeps the runner's next append out of it.
		n := len(j.rounds)
		batch := j.rounds[next:n:n]
		next = n
		terminal := j.terminalLocked()
		state, errMsg, result := j.state, j.errMsg, j.result
		j.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		// One deadline per flushed batch, not per event. A ResponseWriter
		// with no connection under it (a test recorder) has none to set.
		_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		for i := range batch {
			if jw.event(&StreamEvent{Round: &batch[i]}) != nil {
				return
			}
		}
		if terminal {
			_ = jw.event(&StreamEvent{Done: true, State: state, Error: errMsg, Result: result})
			return
		}
		if jw.flush() != nil || rc.Flush() != nil {
			return
		}
		// The hold runs only after a flush, and a hold that ends early ends
		// the stream's last wait (terminal) or the stream, so the timer is
		// only ever reset after it fired.
		if hold == nil {
			hold = time.NewTimer(streamHold)
			defer hold.Stop()
		} else {
			hold.Reset(streamHold)
		}
		select {
		case <-hold.C:
		case <-j.done:
		case <-ctx.Done():
			return
		}
	}
}
