package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"flips"
	"flips/internal/dist"
	"flips/internal/server"
)

// bench is one booted system under test: the job server on a loopback
// listener, plus — for dist_fleet — a shard coordinator with its workers
// registered over loopback TCP.
type bench struct {
	base   string
	client *http.Client
	srv    *server.Server
	hs     *http.Server
	served chan error

	coord   *dist.Coordinator
	runner  *flips.DistRunner
	workers sync.WaitGroup
}

// distWorkers is dist_fleet's shard-worker count (ISSUE: two RunWorker
// goroutines at Parallelism 1).
const distWorkers = 2

// boot starts the server the way flipsd does, with nproc job workers.
func boot(w workload, nproc int) (*bench, error) {
	b := &bench{served: make(chan error, 1)}
	cfg := server.Config{Workers: nproc}
	if w.dist {
		b.coord = dist.NewCoordinator()
		b.coord.ErrorLog = log.New(io.Discard, "", 0)
		addr, err := b.coord.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		for i := 0; i < distWorkers; i++ {
			b.workers.Add(1)
			go func() {
				defer b.workers.Done()
				// Returns nil on the coordinator's shutdown frame and an
				// error when Close tears the connection down first; both are
				// the orderly end of a benchmark worker.
				_ = dist.RunWorker(addr, dist.WorkerOptions{Builder: flips.DistWorkerBuilder(), Parallelism: 1})
			}()
		}
		if err := b.coord.AwaitWorkers(distWorkers, 10*time.Second); err != nil {
			b.close()
			return nil, err
		}
		b.runner = &flips.DistRunner{Coord: b.coord, Workers: distWorkers}
		cfg.Run = b.runner.Run
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	b.srv = server.New(cfg)
	b.hs = &http.Server{Handler: b.srv.Handler()}
	go func() { b.served <- b.hs.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 2 * nproc, MaxIdleConnsPerHost: 2 * nproc}}
	return b, nil
}

// close drains the server, stops the listener and the shard workers, and
// waits for every goroutine boot started.
func (b *bench) close() {
	if b.srv != nil {
		b.srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = b.hs.Shutdown(ctx)
		cancel()
		<-b.served
		b.client.CloseIdleConnections()
	}
	if b.coord != nil {
		_ = b.coord.Close()
		b.workers.Wait()
	}
}

// jobSample is one job as its tenant saw it. Times are client-clock seconds.
type jobSample struct {
	fail       string
	wall       float64 // POST sent -> terminal Done event read
	firstRound float64 // POST sent -> first Round event read
	submit     float64 // POST round-trip
	queueWait  float64 // server: SubmittedAt -> StartedAt
	run        float64 // server: StartedAt -> FinishedAt
	streamLag  float64 // terminal event read - FinishedAt
	events     int
	bytes      int64
	digest     uint64 // round history + result, bit-exact
	result     flips.SimulationResult
	aborted    int // MaskAborted rounds
}

// historyDigest hashes what must be bit-equal between two runs of one job:
// every streamed round's number, accuracy bits, cohort counts, loss and
// clock, then the headline result.
type historyDigest struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *historyDigest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	_, _ = d.h.Write(d.buf[:]) // hash.Hash.Write never fails
}

func (d *historyDigest) round(round, invited, completed int, accuracy, meanLoss, simTime float64) {
	d.u64(uint64(round))
	d.u64(uint64(invited))
	d.u64(uint64(completed))
	d.u64(math.Float64bits(accuracy))
	d.u64(math.Float64bits(meanLoss))
	d.u64(math.Float64bits(simTime))
}

func (d *historyDigest) result(peak float64, roundsToTarget int, timeToTarget, simTime float64) {
	d.u64(math.Float64bits(peak))
	d.u64(uint64(int64(roundsToTarget)))
	d.u64(math.Float64bits(timeToTarget))
	d.u64(math.Float64bits(simTime))
}

// runJob submits cfg and follows its stream to the terminal event, timing
// everything on the client clock and checking the job's own invariants.
func (b *bench) runJob(cfg flips.SimulationConfig, wantEvents int) jobSample {
	var s jobSample
	body, err := json.Marshal(cfg)
	if err != nil {
		s.fail = "encode config: " + err.Error()
		return s
	}
	start := time.Now()
	resp, err := b.client.Post(b.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.fail = "submit: " + err.Error()
		return s
	}
	var sub server.JobStatus
	decodeErr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	s.submit = time.Since(start).Seconds()
	if resp.StatusCode != http.StatusAccepted || decodeErr != nil || sub.ID == "" {
		s.fail = fmt.Sprintf("submit answered %d (decode: %v)", resp.StatusCode, decodeErr)
		return s
	}

	stream, err := b.client.Get(b.base + "/jobs/" + sub.ID + "/stream")
	if err != nil {
		s.fail = "open stream: " + err.Error()
		return s
	}
	defer stream.Body.Close()
	hash := fnv.New64a()
	dig := historyDigest{h: hash}
	rd := bufio.NewReaderSize(stream.Body, 64<<10)
	var terminal *server.StreamEvent
	var readDone time.Time
	for terminal == nil {
		// Every event is one newline-terminated line; an error here means
		// the stream closed before the terminal event.
		line, err := rd.ReadBytes('\n')
		if err != nil {
			s.fail = "stream ended without a terminal event: " + err.Error()
			return s
		}
		s.bytes += int64(len(line))
		var ev server.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			s.fail = "stream line: " + err.Error()
			return s
		}
		switch {
		case ev.Round != nil:
			if s.events == 0 {
				s.firstRound = time.Since(start).Seconds()
			}
			s.events++
			p := ev.Round
			dig.round(p.Round, p.Invited, p.Completed, p.Accuracy, p.MeanLoss, p.SimTime)
			if math.IsNaN(p.Accuracy) || math.IsInf(p.Accuracy, 0) {
				s.fail = fmt.Sprintf("round %d: non-finite accuracy", p.Round)
			}
			if p.Completed > p.Invited {
				s.fail = fmt.Sprintf("round %d: completed %d > invited %d", p.Round, p.Completed, p.Invited)
			}
			if p.MaskAborted {
				s.aborted++
			}
		case ev.Done:
			readDone = time.Now()
			terminal = &ev
		}
	}
	s.wall = readDone.Sub(start).Seconds()
	if s.fail != "" {
		return s
	}
	if terminal.State != server.StateDone || terminal.Result == nil {
		s.fail = fmt.Sprintf("terminal state %q: %s", terminal.State, terminal.Error)
		return s
	}
	res := terminal.Result
	dig.result(res.PeakAccuracy, res.RoundsToTarget, res.TimeToTarget, res.SimTime)
	s.digest = hash.Sum64()
	if s.events != wantEvents || len(res.History) != wantEvents {
		s.fail = fmt.Sprintf("streamed %d rounds, result carries %d, want %d", s.events, len(res.History), wantEvents)
		return s
	}
	if s.aborted > 0 {
		s.fail = fmt.Sprintf("%d mask-aborted rounds", s.aborted)
		return s
	}
	s.result = *res
	s.result.History = nil

	var st server.JobStatus
	if err := b.getJSON("/jobs/"+sub.ID, &st); err != nil {
		s.fail = "status: " + err.Error()
		return s
	}
	s.queueWait = st.StartedAt.Sub(st.SubmittedAt).Seconds()
	s.run = st.FinishedAt.Sub(st.StartedAt).Seconds()
	s.streamLag = readDone.Sub(st.FinishedAt).Seconds()
	return s
}

func (b *bench) getJSON(path string, v any) error {
	resp, err := b.client.Get(b.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s answered %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// passSample is one closed-loop pass over the workload's job list: one job
// for the single-job workloads, one window for server_mixed. CPU and
// allocation are process-wide deltas read outside the timed calls. factor is
// how slow the host ran during the pass (calib.go): the timed end-to-end
// metrics are divided by it.
type passSample struct {
	wall    float64
	cpu     float64
	allocMB float64
	jobs    []jobSample

	factor       float64
	calibSamples int
}

// runPass drains the job list with `tenants` closed-loop clients, each
// waiting for its job's terminal event before submitting the next.
func (b *bench) runPass(w workload, wantEvents []int, tenants int) passSample {
	runtime.GC() // level the heap so passes start from the same GC state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	calib := startCalibrator(calibPassPeriod)
	start := time.Now()

	jobs := make([]jobSample, len(w.jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				jobs[i] = b.runJob(w.jobs[i], wantEvents[i])
			}
		}()
	}
	for i := range w.jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	p := passSample{wall: time.Since(start).Seconds(), jobs: jobs}
	p.factor, p.calibSamples = calib.factor()
	user, sys := processCPU().split()
	u0, s0 := cpu0.split()
	p.cpu = (user - u0) + (sys - s0)
	runtime.ReadMemStats(&after)
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return p
}

// rusage is the process's resource use so far.
type rusage syscall.Rusage

func processCPU() rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return rusage(ru)
}

func (r rusage) split() (user, sys float64) {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(r.Utime), tv(r.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func (r rusage) peakRSSMB() float64 { return float64(r.Maxrss) / 1024 }
