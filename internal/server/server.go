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
//	GET  /metrics         Prometheus text: queue depth, in-flight, arrival
//	                      rate, p50/p99 job latency, shard locality
//	GET  /healthz         "ok" while accepting, "draining" during shutdown
//
// Jobs run on a bounded parallel.Queue: submission never blocks — a full
// buffer answers 429 so load sheds at the edge — and Drain implements
// graceful shutdown: new submissions get 503 while every job already
// accepted (queued or running) runs to completion, so an orderly SIGTERM
// never loses a job. Client (client.go) is the one submit-and-follow client
// of these endpoints.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"flips"
	"flips/internal/dist"
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
	// Run executes one job (default flips.RunSimulationStream); tests
	// inject a fake to control timing and failure. flipsd swaps in the
	// distributed runner when shard workers are configured.
	Run func(cfg flips.SimulationConfig, onRound func(flips.RoundPoint)) (*flips.SimulationResult, error)
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

// streamWriteTimeout bounds the write of one flushed batch of a job stream. A
// follower that stops reading fills its socket buffer; the batch that cannot
// be written within the bound ends the stream and releases the connection. A
// variable only so the test can shorten it.
var streamWriteTimeout = 30 * time.Second

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

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// job is one submitted simulation with its streaming round log. cond (on mu)
// wakes stream handlers whenever a round lands or the state turns terminal.
type job struct {
	id  string
	cfg flips.SimulationConfig

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

func (j *job) terminalLocked() bool {
	return j.state == StateDone || j.state == StateFailed
}

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

// Snapshot is a point-in-time counter read, for banners and tests.
type Snapshot struct {
	Accepted, Rejected, Done, Failed, InFlight, QueueDepth int
}

// Server is the job server. Create with New, expose with Handler, shut down
// with Drain.
type Server struct {
	cfg   Config
	queue *parallel.Queue
	mux   *http.ServeMux

	mu          sync.Mutex
	jobs        map[string]*job
	order       []string // submission order, oldest first
	nextID      int
	draining    bool
	started     time.Time
	inFlight    int
	accepted    int
	rejected    int
	doneCount   int
	failedCount int
	arrivals    []time.Time // ring of recent arrival times for the rate gauge
	arrivalNext int
	latency     *metrics.Window
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
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops accepting jobs (POST answers 503) and blocks until every job
// already accepted has finished. Status, stream and metrics endpoints keep
// serving throughout, so clients can collect results during the drain.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.queue.Drain()
}

// Stats reads the counters.
func (s *Server) Stats() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		Accepted:   s.accepted,
		Rejected:   s.rejected,
		Done:       s.doneCount,
		Failed:     s.failedCount,
		InFlight:   s.inFlight,
		QueueDepth: s.queue.Depth(),
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	cfg, err := flips.DecodeSimulationConfig(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = s.cfg.JobParallelism
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining: no new jobs accepted")
		return
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		cfg:       cfg,
		state:     StateQueued,
		submitted: s.cfg.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	// Registration and queue submission happen under s.mu so a concurrent
	// Drain cannot slip between them: either the submit wins and the drain
	// waits for this job, or the drain wins and the submit is rejected.
	if !s.queue.TrySubmit(func() { s.runJob(j) }) {
		s.rejected++
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, "job queue full (%d deep): retry later", s.cfg.QueueDepth)
		return
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.accepted++
	s.recordArrivalLocked(j.submitted)
	s.evictLocked()
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, JobStatus{ID: j.id, State: StateQueued, SubmittedAt: j.submitted})
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
// log and folding service metrics on completion.
func (s *Server) runJob(j *job) {
	start := s.cfg.Now()
	j.mu.Lock()
	j.state = StateRunning
	j.started = start
	j.cond.Broadcast()
	j.mu.Unlock()
	s.mu.Lock()
	s.inFlight++
	s.mu.Unlock()

	res, err := s.runProtected(j)

	finished := s.cfg.Now()
	j.mu.Lock()
	j.finished = finished
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
		j.result = res
	}
	rounds := len(j.rounds)
	j.cond.Broadcast()
	j.mu.Unlock()

	// Job latency is submission→completion (queue wait included): the
	// number a tenant experiences and the one the SLO smoke gates on.
	latency := finished.Sub(j.submitted).Seconds()
	s.mu.Lock()
	s.inFlight--
	if err != nil {
		s.failedCount++
	} else {
		s.doneCount++
	}
	s.latency.Push(latency)
	s.latSum += latency
	s.latCount++
	s.roundsTotal += rounds
	s.mu.Unlock()
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
	res, err = s.cfg.Run(j.cfg, func(p flips.RoundPoint) {
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
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j := s.job(id); j != nil {
			st := j.status()
			st.Result = nil // listing stays light; fetch one job for the payload
			out = append(out, st)
		}
	}
	writeJSON(w, http.StatusOK, out)
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
// sequence.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)

	// A canceled request must wake a handler parked in cond.Wait; holding
	// j.mu for the broadcast pairs it with the wait-loop's ctx re-check.
	ctx := r.Context()
	stopWake := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.cond.Broadcast()
	})
	defer stopWake()

	next := 0
	for {
		j.mu.Lock()
		for next >= len(j.rounds) && !j.terminalLocked() && ctx.Err() == nil {
			j.cond.Wait()
		}
		batch := append([]flips.RoundPoint(nil), j.rounds[next:]...)
		next += len(batch)
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
			if enc.Encode(StreamEvent{Round: &batch[i]}) != nil {
				return
			}
		}
		if terminal {
			_ = enc.Encode(StreamEvent{Done: true, State: state, Error: errMsg, Result: result})
			return
		}
		if rc.Flush() != nil {
			return
		}
	}
}
