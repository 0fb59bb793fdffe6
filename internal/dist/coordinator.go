package dist

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"flips/internal/fl"
	"flips/internal/model"
	"flips/internal/partition"
	"flips/internal/wire"
)

// Coordinator accepts shard-worker connections and hands them to jobs. It
// owns only the worker registry; all engine state lives in the jobs (and in
// the fl engine driving them), so the coordinator itself is O(workers).
// Accepting, accept-error backoff, logging and shutdown of connections still
// in their handshake are wire.Listener's; a registered worker's connection
// belongs to the registry, then to whichever job slot seats it.
type Coordinator struct {
	// ErrorLog receives accept-loop and worker-failure notices (one line per
	// burst). Nil logs via the standard logger; set before Listen.
	ErrorLog *log.Logger

	ln *wire.Listener

	mu      sync.Mutex
	cond    *sync.Cond
	workers map[int]*workerConn // every registered, live worker
	idle    []*workerConn       // registered workers not attached to a job slot
	nextID  int
	nextJob uint64
	closed  bool
}

// workerConn is one registered worker. All frame I/O after registration is
// owned by whichever job slot holds the worker; the coordinator only ever
// touches the conn again to close it.
type workerConn struct {
	id    int
	conn  net.Conn
	codec *wire.Codec
}

// frameTimeout bounds one request/response exchange with a worker — the
// slowest being an assignment, whose answer waits for the worker to build its
// fleet. A worker that stays silent past it is treated like one whose
// connection broke; a worker bounds each reply it writes by the same value
// (ServeConn). A variable only so the tests can shorten it.
var frameTimeout = 2 * time.Minute

const (
	// helloTimeout bounds the registration handshake on both sides: the
	// coordinator's wait for an accepted connection's hello and the worker's
	// wait for the ack.
	helloTimeout = 10 * time.Second
	// shutdownTimeout bounds the best-effort shutdown exchange per worker.
	shutdownTimeout = 250 * time.Millisecond
)

// roundTrip sends one request frame and reads its response, both under one
// frameTimeout deadline. The response payload aliases the codec's receive
// buffer — decode before the next call. A request larger than a frame is no
// fault of this worker and would be refused on any other: it comes back as a
// fatalError, not as a transport failure.
func (w *workerConn) roundTrip(typ byte, payload []byte) (byte, []byte, error) {
	if len(payload) > wire.MaxFrame {
		return 0, nil, &fatalError{err: fmt.Errorf("dist: %d-byte request: %w", len(payload), wire.ErrFrameTooLarge)}
	}
	return wire.RoundTrip(w.conn, w.codec, frameTimeout, typ, payload)
}

// NewCoordinator constructs an idle coordinator; call Listen to serve.
func NewCoordinator() *Coordinator {
	c := &Coordinator{workers: make(map[int]*workerConn)}
	c.cond = sync.NewCond(&c.mu)
	c.ln = wire.NewListener("dist coordinator", c.register)
	return c
}

// Listen starts accepting workers on addr and returns the bound address.
func (c *Coordinator) Listen(addr string) (string, error) {
	c.ln.ErrorLog = c.ErrorLog
	return c.ln.Listen(addr)
}

// register performs the hello handshake and parks the worker in the idle
// pool. A malformed handshake closes the connection without registration.
func (c *Coordinator) register(conn net.Conn) {
	codec := wire.NewCodec(conn, Version)
	// Covers the hello read and the ack write. It stays on a parked
	// connection: every later exchange sets its own (wire.RoundTrip).
	_ = conn.SetDeadline(time.Now().Add(helloTimeout))
	typ, _, err := codec.Recv() // hello carries no payload today; reserved
	if err != nil || typ != ftHello {
		if err == nil {
			var e buf
			e.str(fmt.Sprintf("expected hello, got frame type %d", typ))
			_ = codec.Send(ftError, e.bytes())
		}
		conn.Close()
		return
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	w := &workerConn{id: c.nextID, conn: conn, codec: codec}
	c.nextID++
	c.workers[w.id] = w
	c.mu.Unlock()

	var ack buf
	ack.u32(uint32(w.id))
	if err := codec.Send(ftHelloAck, ack.bytes()); err != nil {
		c.unregister(w)
		return
	}

	c.mu.Lock()
	c.idle = append(c.idle, w)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// unregister removes a failed worker from the registry and closes its
// connection. Safe to call multiple times.
func (c *Coordinator) unregister(w *workerConn) {
	c.mu.Lock()
	delete(c.workers, w.id)
	for i, iw := range c.idle {
		if iw == w {
			c.idle = append(c.idle[:i], c.idle[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	w.conn.Close()
}

// claimIdle blocks until n idle workers are available (or the coordinator
// closes, or ctx is done) and detaches them from the pool together. Taking
// them one at a time would let two jobs that each want the whole pool hold
// half of it and wait for the other half forever.
func (c *Coordinator) claimIdle(ctx context.Context, n int) ([]*workerConn, error) {
	// A done ctx must wake a claim parked in cond.Wait; holding c.mu for the
	// broadcast pairs it with the wait loop's ctx re-check.
	stopWake := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.cond.Broadcast()
	})
	defer stopWake()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.idle) < n && !c.closed && ctx.Err() == nil {
		c.cond.Wait()
	}
	if c.closed {
		return nil, fmt.Errorf("dist: coordinator closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: waiting for %d idle workers: %w", n, err)
	}
	claimed := append([]*workerConn(nil), c.idle[:n]...)
	c.idle = c.idle[n:]
	return claimed, nil
}

// release returns a job's worker to the idle pool for the next job.
func (c *Coordinator) release(w *workerConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if _, live := c.workers[w.id]; !live {
		return
	}
	c.idle = append(c.idle, w)
	c.cond.Broadcast()
}

// WorkerCount reports the number of registered live workers.
func (c *Coordinator) WorkerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// AwaitWorkers blocks until at least n workers are registered, or the
// timeout expires, or the coordinator closes. It waits on the registry's
// cond: a registration wakes it, and so do Close and a timer that fires at
// the timeout, as a done ctx wakes claimIdle.
func (c *Coordinator) AwaitWorkers(n int, timeout time.Duration) error {
	expired := false
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		expired = true
		c.cond.Broadcast()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.workers) < n && !c.closed && !expired {
		c.cond.Wait()
	}
	switch {
	case c.closed:
		return fmt.Errorf("dist: coordinator closed")
	case len(c.workers) < n:
		return fmt.Errorf("dist: %d of %d workers after %v", len(c.workers), n, timeout)
	}
	return nil
}

// Close stops accepting (connections still in their handshake are closed, not
// registered), then sends best-effort shutdown frames to every registered
// worker and closes their connections. closed is set first and registration
// re-checks it under the same mutex, and the listener's Close returns only
// once every handshake has ended, so no worker can slip past the snapshot.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	err := c.ln.Close()
	c.mu.Lock()
	workers := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		workers = append(workers, w)
	}
	c.workers = make(map[int]*workerConn)
	c.idle = nil
	c.mu.Unlock()
	for _, w := range workers {
		// Best effort: a worker blocked mid-request, or one that does not
		// ack inside the bound, sees the close below instead.
		_, _, _ = wire.RoundTrip(w.conn, w.codec, shutdownTimeout, ftShutdown, nil)
		w.conn.Close()
	}
	return err
}

// WorkerStat is one job slot's observability snapshot, exported to flipsd's
// /metrics endpoint.
type WorkerStat struct {
	Slot      int
	WorkerID  int // -1 while the slot is vacant
	PartyLo   int
	PartyHi   int
	Connected bool
	Waves     uint64 // waves this slot completed
	LagWaves  uint64 // waves dispatched to the slot and not yet completed
	// BytesIn/BytesOut are the running totals of every connection that has
	// served the slot, frames of the jobs those connections carried earlier
	// included: benchmark/layers.go subtracts the previous job's snapshot
	// from them, and that directory is frozen. JobBytesIn/JobBytesOut count
	// this job's frames only and are what /metrics shows.
	BytesIn, BytesOut       int64
	JobBytesIn, JobBytesOut int64
}

// slot is one shard-worker seat of a job: a contiguous party range, the
// worker currently holding it, and the synchronization state needed to
// replay the assignment onto a replacement worker.
type slot struct {
	idx    int
	lo, hi int

	mu            sync.Mutex
	w             *workerConn
	syncedVersion uint64 // version of the params the worker holds; unsyncedVersion if none
	dispatched    uint64 // waves that addressed this slot
	waves         uint64 // … of which completed
	// Byte counters accumulated from detached workers; live counters come
	// from the attached codec. A codec counts for its connection's life, so
	// prior* sums what each worker seated here had already moved for earlier
	// jobs when it was assigned.
	accumIn, accumOut int64
	priorIn, priorOut int64

	// Per-wave scratch, reused across waves (owned by the slot goroutine).
	idxs []int
	enc  buf
}

// Job attaches a worker fleet to one FL run. It implements fl.ShardTransport:
// training waves cross the wire. A Job is driven by the engine's single
// goroutine; its own concurrency is the per-slot fan-out inside TrainWave.
type Job struct {
	c       *Coordinator
	ctx     context.Context // ends every wait for a worker once done
	id      uint64
	spec    []byte
	parties int

	slots []*slot

	waveSeq uint64 // engine goroutine only
}

var _ fl.ShardTransport = (*Job)(nil)

// NewJob is NewJobContext under context.Background(): its claim, and every
// later wait for a replacement worker, lasts until a worker frees up or the
// coordinator closes.
func NewJob(c *Coordinator, spec []byte, parties, workers int) (*Job, error) {
	return NewJobContext(context.Background(), c, spec, parties, workers)
}

// NewJobContext claims `workers` registered workers, partitions the
// contiguous party-ID space [0, parties) into that many shard ranges, and
// streams the spec to each worker. The spec must let every worker's Builder
// reconstruct its party range deterministically. Once ctx is done, the claim
// and every later wait for a replacement worker return ctx's error, wrapped,
// and so does the next TrainWave: a cancelled job lets go of its workers at
// its next wave boundary, when its owner closes it.
func NewJobContext(ctx context.Context, c *Coordinator, spec []byte, parties, workers int) (*Job, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("dist: job needs at least one worker, got %d", workers)
	}
	if parties <= 0 {
		return nil, fmt.Errorf("dist: job needs at least one party, got %d", parties)
	}
	if workers > parties {
		workers = parties
	}
	c.mu.Lock()
	id := c.nextJob
	c.nextJob++
	c.mu.Unlock()

	j := &Job{c: c, ctx: ctx, id: id, spec: spec, parties: parties, slots: evenSlots(parties, workers)}
	claimed, err := c.claimIdle(ctx, workers)
	if err != nil {
		return nil, err
	}
	// Every worker builds its shard while the others build theirs: the
	// assignments go out together and NewJob waits for the slowest ack, not
	// for their sum.
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, s := range j.slots {
		wg.Add(1)
		go func(s *slot, w *workerConn) {
			defer wg.Done()
			errs[s.idx] = j.assign(s, w)
		}(s, claimed[i])
	}
	wg.Wait()
	var failed error
	for i, err := range errs {
		if err == nil {
			continue
		}
		// A worker that cannot take the assignment is dead weight for every
		// job; drop it and fail loudly — the caller decides whether to retry
		// with fewer workers. Close releases the workers that were seated.
		c.unregister(claimed[i])
		if failed == nil {
			failed = err
		}
	}
	if failed != nil {
		j.Close()
		return nil, failed
	}
	return j, nil
}

// assign sends the slot's shard assignment to a worker and seats it. The
// slot's parameter sync state resets: the next dispatch frame carries the
// full parameter vector, which is also exactly the reconnect-replay path.
func (j *Job) assign(s *slot, w *workerConn) error {
	s.enc.reset()
	s.enc.u64(j.id)
	s.enc.u32(uint32(s.lo))
	s.enc.u32(uint32(s.hi))
	s.enc.u32(uint32(len(j.spec)))
	s.enc.raw(j.spec)
	priorIn, priorOut := w.codec.BytesIn(), w.codec.BytesOut()
	typ, payload, err := w.roundTrip(ftAssignShards, s.enc.bytes())
	if err != nil {
		return fmt.Errorf("dist: assign shard %d: %w", s.idx, err)
	}
	if err := expect(ftAssignAck, typ, payload); err != nil {
		return fmt.Errorf("dist: assign shard %d: %w", s.idx, err)
	}
	s.mu.Lock()
	s.w = w
	s.syncedVersion = unsyncedVersion
	s.priorIn += priorIn
	s.priorOut += priorOut
	s.mu.Unlock()
	return nil
}

// dropWorker detaches a failed worker from its slot and removes it from the
// registry. The slot goes vacant; the next acquire waits for a replacement.
func (j *Job) dropWorker(s *slot, w *workerConn, cause error) {
	s.mu.Lock()
	if s.w == w {
		s.w = nil
		s.syncedVersion = unsyncedVersion
		s.accumIn += w.codec.BytesIn()
		s.accumOut += w.codec.BytesOut()
	}
	s.mu.Unlock()
	j.c.unregister(w)
	j.c.ln.Logf("dist: job %d shard %d lost worker %d: %v", j.id, s.idx, w.id, cause)
}

// acquire returns the slot's attached worker, claiming and assigning a
// replacement (blocking until one registers, or the job's ctx is done) when
// the slot is vacant.
func (j *Job) acquire(s *slot) (*workerConn, error) {
	s.mu.Lock()
	w := s.w
	s.mu.Unlock()
	if w != nil {
		return w, nil
	}
	for {
		claimed, err := j.c.claimIdle(j.ctx, 1)
		if err != nil {
			return nil, err
		}
		fresh := claimed[0]
		if err := j.assign(s, fresh); err != nil {
			j.c.unregister(fresh)
			j.c.ln.Logf("dist: job %d shard %d replacement rejected: %v", j.id, s.idx, err)
			continue
		}
		return fresh, nil
	}
}

// evenSlots splits the party-ID space [0, parties) into `workers`
// contiguous ranges, slot i taking partition.Blocks' block i: the engine's
// shard i when Workers == Shards.
func evenSlots(parties, workers int) []*slot {
	space := partition.Blocks{N: parties, K: workers}
	slots := make([]*slot, workers)
	for i := range slots {
		slots[i] = &slot{
			idx:           i,
			lo:            space.Start(i),
			hi:            space.Start(i + 1),
			syncedVersion: unsyncedVersion,
		}
	}
	return slots
}

// slotOf maps a party ID to its slot index, or to len(j.slots) for an ID
// outside [0, parties).
func (j *Job) slotOf(id int) int {
	if id < 0 || id >= j.parties {
		return len(j.slots)
	}
	return partition.Blocks{N: j.parties, K: len(j.slots)}.Of(id)
}

// TrainWave implements fl.ShardTransport: partition the wave across the
// shard slots, run every slot's sub-wave concurrently, and deposit the
// results index-addressed into out. Worker failures mid-wave detach the
// worker and replay the slot's assignment — the spec, then the identical
// sub-wave with the parameters back on its frame — onto a replacement, so a
// disturbed run produces bit-identical results to an undisturbed one. A job
// whose ctx is done dispatches no further wave.
func (j *Job) TrainWave(d fl.TrainDispatch, out []model.LocalResult) error {
	if err := j.ctx.Err(); err != nil {
		return fmt.Errorf("dist: job %d: %w", j.id, err)
	}
	j.waveSeq++
	wave := j.waveSeq

	for _, s := range j.slots {
		s.idxs = s.idxs[:0]
	}
	for i, id := range d.IDs {
		k := j.slotOf(id)
		if k >= len(j.slots) {
			return fmt.Errorf("dist: party %d outside the job's %d-party space", id, j.parties)
		}
		s := j.slots[k]
		s.idxs = append(s.idxs, i)
	}

	var wg sync.WaitGroup
	errs := make([]error, len(j.slots))
	for _, s := range j.slots {
		if len(s.idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s *slot) {
			defer wg.Done()
			errs[s.idx] = j.runSlotWave(s, wave, d, out)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runSlotWave drives one slot through the wave, retrying on transport
// failures with replacement workers. Protocol errors reported by a healthy
// worker (an ftError frame) are fatal: they are deterministic — a
// replacement worker would compute the same answer.
func (j *Job) runSlotWave(s *slot, wave uint64, d fl.TrainDispatch, out []model.LocalResult) error {
	s.mu.Lock()
	s.dispatched++
	s.mu.Unlock()
	for {
		w, err := j.acquire(s)
		if err != nil {
			return err
		}
		err = j.trySlotWave(s, w, wave, d, out)
		if err == nil {
			s.mu.Lock()
			s.waves++
			s.mu.Unlock()
			return nil
		}
		var fatal *fatalError
		if errors.As(err, &fatal) {
			return fatal.err
		}
		j.dropWorker(s, w, err)
	}
}

// fatalError marks failures retrying cannot fix.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }

// trySlotWave dispatches the slot's sub-wave (split to respect the frame
// bound) and decodes the partial folds into out. The first frame carries the
// global parameters when the worker is behind d.Version.
func (j *Job) trySlotWave(s *slot, w *workerConn, wave uint64, d fl.TrainDispatch, out []model.LocalResult) error {
	s.mu.Lock()
	behind := s.syncedVersion != uint64(d.Version)
	s.mu.Unlock()
	batch := maxWaveParties(len(d.Params))
	for start := 0; start < len(s.idxs); start += batch {
		end := min(start+batch, len(s.idxs))
		if err := j.dispatchBatch(s, w, wave, d, s.idxs[start:end], behind && start == 0, out); err != nil {
			return err
		}
	}
	return nil
}

// dispatchBatch sends one dispatch frame for idxs (indices into d.IDs),
// carrying d.Params when withParams, and decodes the partial-fold response
// into out at those same indices. The slot counts as synced to d.Version once
// the fold of a params-carrying frame is accepted: the worker commits the
// version before it trains, so a fold is proof it holds the vector.
func (j *Job) dispatchBatch(s *slot, w *workerConn, wave uint64, d fl.TrainDispatch, idxs []int, withParams bool, out []model.LocalResult) error {
	s.enc.reset()
	s.enc.u64(j.id)
	s.enc.u64(wave)
	s.enc.u64(uint64(d.Version))
	s.enc.f64(d.SGD.LearningRate)
	s.enc.u32(uint32(d.SGD.BatchSize))
	s.enc.u32(uint32(d.SGD.LocalEpochs))
	s.enc.f64(d.SGD.ProxMu)
	if withParams {
		s.enc.u32(uint32(len(d.Params)))
		s.enc.f64s(d.Params)
	} else {
		s.enc.u32(0)
	}
	s.enc.u32(uint32(len(idxs)))
	for _, i := range idxs {
		s.enc.u32(uint32(d.IDs[i]))
		for _, word := range d.RngStates[i] {
			s.enc.u64(word)
		}
	}
	typ, payload, err := w.roundTrip(ftDispatchWave, s.enc.bytes())
	if err != nil {
		return err
	}
	if typ == ftError {
		return &fatalError{err: errFrame(payload)}
	}
	if typ != ftPartialFold {
		return fmt.Errorf("dist: frame type %d, want partial fold", typ)
	}

	r := reader{b: payload}
	jobID := r.u64()
	gotWave := r.u64()
	n := int(r.u32())
	dim := int(r.u32())
	if r.err == nil && (jobID != j.id || gotWave != wave || n != len(idxs) || dim != len(d.Params)) {
		return &fatalError{err: fmt.Errorf("dist: fold header (job %d wave %d n %d dim %d) does not match dispatch (job %d wave %d n %d dim %d)",
			jobID, gotWave, n, dim, j.id, wave, len(idxs), len(d.Params))}
	}
	for _, i := range idxs {
		lr := &out[i]
		lr.NumSamples = int(r.u32())
		lr.Steps = int(r.u32())
		lr.MeanLoss = r.f64()
		lr.SqLossMean = r.f64()
		// lr.Params arrives sized by the engine, which owns the vector and
		// recycles it once its update is folded; the parameters decode
		// straight into it.
		if len(lr.Params) != dim {
			return &fatalError{err: fmt.Errorf("dist: result slot %d holds %d parameters, want %d", i, len(lr.Params), dim)}
		}
		r.f64s(lr.Params)
	}
	if err := r.done(); err != nil {
		return err
	}
	if withParams {
		s.mu.Lock()
		s.syncedVersion = uint64(d.Version)
		s.mu.Unlock()
	}
	return nil
}

// ObserveRound does nothing. The per-round stats broadcast it used to send
// had no consumer on the worker side; the method stays only because
// benchmark/trace.go forwards to it and that directory is frozen.
func (j *Job) ObserveRound(fl.RoundStats) {}

// Stats snapshots per-slot worker observability for /metrics.
func (j *Job) Stats() []WorkerStat {
	stats := make([]WorkerStat, 0, len(j.slots))
	for _, s := range j.slots {
		s.mu.Lock()
		st := WorkerStat{
			Slot:     s.idx,
			WorkerID: -1,
			PartyLo:  s.lo,
			PartyHi:  s.hi,
			Waves:    s.waves,
			LagWaves: s.dispatched - s.waves,
			BytesIn:  s.accumIn,
			BytesOut: s.accumOut,
		}
		if s.w != nil {
			st.WorkerID = s.w.id
			st.Connected = true
			st.BytesIn += s.w.codec.BytesIn()
			st.BytesOut += s.w.codec.BytesOut()
		}
		st.JobBytesIn, st.JobBytesOut = st.BytesIn-s.priorIn, st.BytesOut-s.priorOut
		s.mu.Unlock()
		stats = append(stats, st)
	}
	return stats
}

// Close releases the job's workers back to the coordinator's idle pool.
func (j *Job) Close() {
	for _, s := range j.slots {
		s.mu.Lock()
		w := s.w
		s.w = nil
		s.mu.Unlock()
		if w != nil {
			j.c.release(w)
		}
	}
}
