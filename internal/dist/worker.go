package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"slices"
	"time"

	"flips/internal/fl"
	"flips/internal/model"
	"flips/internal/parallel"
	"flips/internal/rng"
	"flips/internal/tensor"
	"flips/internal/wire"
)

// JobSetup is what a worker needs to train one job's shard: the parties of
// its assigned contiguous ID range (party lo+i at index i) and the model
// factory all replicas are built from.
type JobSetup struct {
	Parties []*fl.Party
	Factory model.Factory
}

// Builder reconstructs a job's party shard from the job spec the coordinator
// shipped in the assign-shards frame. Builders must be deterministic — every
// worker (and the coordinator, for its own bookkeeping) derives the same
// fleet from the same spec — and should build only the [lo, hi) range so a
// worker's heap stays proportional to its shard, not the fleet.
type Builder func(spec []byte, lo, hi int) (JobSetup, error)

// WorkerOptions configures a shard worker process.
type WorkerOptions struct {
	// Builder rebuilds party shards from job specs. Required.
	Builder Builder
	// Parallelism bounds the worker's local training pool; zero uses
	// GOMAXPROCS. Any width produces bit-identical results (the same
	// index-addressed deposit argument as the in-process engine).
	Parallelism int
}

// unsyncedVersion marks a job whose parameter vector has not arrived yet (or
// arrived in a frame that was then rejected); a dispatch that carries no
// parameters at this state draws an explicit error instead of training
// against garbage.
const unsyncedVersion = ^uint64(0)

// workerJob is one job's worker-side state.
type workerJob struct {
	setup     JobSetup
	lo, hi    int
	params    tensor.Vec // the global model at version; len is the model's dim
	version   uint64
	pool      *parallel.Pool
	replicas  []model.Model
	scratches []model.TrainScratch
	rngs      []rng.Source
	ids       []int
	trained   []int // per party: the length of the vector it trained
}

// RunWorker dials the coordinator and serves shard-training requests until
// the coordinator sends a shutdown frame (returns nil) or the connection
// fails (returns the error). Callers wanting automatic reconnection loop
// around it.
func RunWorker(addr string, opt WorkerOptions) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist worker: dial %s: %w", addr, err)
	}
	defer conn.Close()
	return ServeConn(conn, opt)
}

// ServeConn runs the worker protocol over an established connection: it
// registers with a hello frame, then answers assign-shards and dispatch-wave
// requests until shutdown or error.
func ServeConn(conn net.Conn, opt WorkerOptions) error {
	if opt.Builder == nil {
		return fmt.Errorf("dist worker: nil builder")
	}
	codec := wire.NewCodec(conn, Version)
	typ, payload, err := wire.RoundTrip(conn, codec, helloTimeout, ftHello, nil)
	if err != nil {
		return fmt.Errorf("dist worker: handshake: %w", err)
	}
	if err := expect(ftHelloAck, typ, payload); err != nil {
		return fmt.Errorf("dist worker: handshake: %w", err)
	}
	// From here on the wait for the coordinator's next request is deliberately
	// unbounded: a registered worker idles for as long as no job seats it.
	// Only replies are bounded — a coordinator that stopped reading costs the
	// worker one frameTimeout, not the connection's lifetime.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return fmt.Errorf("dist worker: %w", err)
	}
	reply := func(typ byte, payload []byte) error {
		if err := conn.SetWriteDeadline(time.Now().Add(frameTimeout)); err != nil {
			return err
		}
		return codec.Send(typ, payload)
	}

	w := &workerState{codec: codec, opt: opt}
	for {
		typ, payload, err := codec.Recv()
		if err != nil {
			return fmt.Errorf("dist worker: %w", err)
		}
		var respType byte
		var resp []byte
		switch typ {
		case ftAssignShards:
			respType, resp, err = w.assign(payload)
		case ftDispatchWave:
			respType, resp, err = w.dispatch(payload)
		case ftShutdown:
			_ = reply(ftShutdownAck, nil)
			wire.Drain(conn, 250*time.Millisecond)
			return nil
		default:
			err = fmt.Errorf("unexpected frame type %d", typ)
		}
		if err != nil {
			// Protocol-level failures answer with an error frame on a still-
			// framed stream; the coordinator decides whether to retry
			// elsewhere or abort the job.
			w.enc.reset()
			w.enc.str(err.Error())
			if sendErr := reply(ftError, w.enc.bytes()); sendErr != nil {
				return fmt.Errorf("dist worker: %w", sendErr)
			}
			continue
		}
		if sendErr := reply(respType, resp); sendErr != nil {
			return fmt.Errorf("dist worker: %w", sendErr)
		}
	}
}

// workerState is one connection's worker-side state. The coordinator seats a
// connection in one job slot at a time and never reuses a job ID, so the job
// last assigned is the only one a dispatch can address: an assignment
// replaces it, and any other ID draws an error frame.
type workerState struct {
	codec *wire.Codec
	opt   WorkerOptions
	jobID uint64
	job   *workerJob // nil until the first assignment
	enc   buf
}

func (w *workerState) assigned(id uint64) (*workerJob, error) {
	if w.job == nil || w.jobID != id {
		return nil, fmt.Errorf("unknown job %d (assign-shards not received)", id)
	}
	return w.job, nil
}

// assign handles ftAssignShards: build the shard's parties from the spec and
// reset the job's parameter sync state.
func (w *workerState) assign(payload []byte) (byte, []byte, error) {
	r := reader{b: payload}
	jobID := r.u64()
	lo := int(r.u32())
	hi := int(r.u32())
	spec := r.bytes(int(r.u32()))
	if err := r.done(); err != nil {
		return 0, nil, err
	}
	if lo < 0 || hi < lo {
		return 0, nil, fmt.Errorf("bad shard range [%d,%d)", lo, hi)
	}
	// The previous job's shard is unreachable from here on whatever becomes of
	// this assignment; let it go before the next one is built beside it.
	w.job = nil
	setup, err := w.opt.Builder(spec, lo, hi)
	if err != nil {
		return 0, nil, fmt.Errorf("build shard [%d,%d): %w", lo, hi, err)
	}
	if len(setup.Parties) != hi-lo {
		return 0, nil, fmt.Errorf("builder returned %d parties for range [%d,%d)", len(setup.Parties), lo, hi)
	}
	if setup.Factory == nil {
		return 0, nil, fmt.Errorf("builder returned nil model factory")
	}
	width := parallel.New(w.opt.Parallelism).Width()
	j := &workerJob{
		setup:     setup,
		lo:        lo,
		hi:        hi,
		version:   unsyncedVersion,
		pool:      parallel.New(width),
		replicas:  make([]model.Model, width),
		scratches: make([]model.TrainScratch, width),
	}
	// The first replica doubles as the job's dimension: every parameter
	// section and every reply is sized against it.
	j.replicas[0] = setup.Factory(rng.New(0))
	j.params = tensor.NewVec(j.replicas[0].NumParams())
	w.jobID, w.job = jobID, j

	w.enc.reset()
	w.enc.u64(jobID)
	return ftAssignAck, w.enc.bytes(), nil
}

// dispatch handles ftDispatchWave: adopt the frame's global parameters if it
// carries them, train the wave's parties against them and answer with the
// partial-fold frame carrying every local result in dispatch order.
//
// A parameter section is decoded straight into j.params, so the job is marked
// unsynced before the first word lands and the version is committed only once
// the whole frame has decoded and checked out: a frame rejected for any reason
// leaves the worker demanding parameters again rather than holding a vector
// of mixed versions.
func (w *workerState) dispatch(payload []byte) (byte, []byte, error) {
	r := reader{b: payload}
	jobID := r.u64()
	waveSeq := r.u64()
	version := r.u64()
	sgd := model.SGDConfig{
		LearningRate: r.f64(),
		BatchSize:    int(r.u32()),
		LocalEpochs:  int(r.u32()),
		ProxMu:       r.f64(),
		MaxGradNorm:  r.f64(),
	}
	paramCount := int(r.u32())
	if r.err != nil {
		return 0, nil, r.err
	}
	j, err := w.assigned(jobID)
	if err != nil {
		return 0, nil, err
	}
	dim := len(j.params)
	switch {
	case paramCount == 0:
		if j.version != version {
			return 0, nil, fmt.Errorf("wave %d at version %d but worker params at %d", waveSeq, version, j.version)
		}
	case paramCount != dim:
		return 0, nil, fmt.Errorf("wave %d carries %d params, the job's model has %d", waveSeq, paramCount, dim)
	default:
		j.version = unsyncedVersion
		r.f64s(j.params)
	}
	n := int(r.u32())
	if r.err != nil {
		return 0, nil, r.err
	}
	if len(payload)-r.off != n*dispatchPartyLen {
		return 0, nil, fmt.Errorf("wave %d: %d payload bytes for %d parties", waveSeq, len(payload)-r.off, n)
	}
	// Refused before any training: the coordinator splits waves to fit, so an
	// oversized reply is a peer that does not — answer it, don't die on Send.
	replyLen := foldHeadLen + n*(foldPartyHeadLen+8*dim)
	if replyLen > wire.MaxFrame {
		return 0, nil, fmt.Errorf("wave %d: the %d-byte reply for %d parties of dim %d exceeds the %d-byte frame bound", waveSeq, replyLen, n, dim, wire.MaxFrame)
	}
	j.ids = j.ids[:0]
	j.rngs = j.rngs[:0]
	for i := 0; i < n; i++ {
		id := int(r.u32())
		var state [4]uint64
		for k := range state {
			state[k] = r.u64()
		}
		if id < j.lo || id >= j.hi {
			return 0, nil, fmt.Errorf("party %d outside assigned range [%d,%d)", id, j.lo, j.hi)
		}
		j.ids = append(j.ids, id)
		j.rngs = append(j.rngs, *rng.FromState(state))
	}
	if paramCount != 0 {
		j.version = version
	}

	// Each party's result is written where it will be sent from: the reply is
	// sized once and party i owns the fixed byte range starting at i·stride
	// of its body, so the pool's deposits are index-addressed like the
	// in-process engine's locals[i] and any pool width produces the same
	// bytes. The trained vector is read from the replica's live parameters —
	// the wire copy is the only copy.
	w.enc.reset()
	w.enc.u64(jobID)
	w.enc.u64(waveSeq)
	w.enc.u32(uint32(n))
	w.enc.u32(uint32(dim))
	stride := foldPartyHeadLen + 8*dim
	body := w.enc.grow(n * stride)
	j.trained = slices.Grow(j.trained[:0], n)[:n]
	// The same determinism shape as the in-process trainBatch: streams were
	// pre-split by the coordinator in canonical order, each pool worker
	// touches only its own replica, scratch and slice index.
	j.pool.ForEachWorker(n, func(wk, i int) {
		party := j.setup.Parties[j.ids[i]-j.lo]
		local := j.replicas[wk]
		if local == nil {
			local = j.setup.Factory(rng.New(0))
			j.replicas[wk] = local
		}
		local.SetParams(j.params)
		lr := model.TrainLocalInPlace(local, party.Data, sgd, j.params, &j.rngs[i], &j.scratches[wk])
		j.trained[i] = len(lr.Params)
		if len(lr.Params) != dim {
			return
		}
		out := body[i*stride:][:stride]
		binary.BigEndian.PutUint32(out[0:], uint32(lr.NumSamples))
		binary.BigEndian.PutUint32(out[4:], uint32(lr.Steps))
		binary.BigEndian.PutUint64(out[8:], math.Float64bits(lr.MeanLoss))
		binary.BigEndian.PutUint64(out[16:], math.Float64bits(lr.SqLossMean))
		putF64s(out[foldPartyHeadLen:], lr.Params)
	})
	for i, got := range j.trained {
		if got != dim {
			return 0, nil, fmt.Errorf("party %d trained %d params, want %d", j.ids[i], got, dim)
		}
	}
	return ftPartialFold, w.enc.bytes(), nil
}
