package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"flips/internal/fl"
	"flips/internal/model"
	"flips/internal/rng"
	"flips/internal/tensor"
	"flips/internal/wire"
)

// f64sWordwise and readF64sWordwise are the per-word codec the bulk one
// replaced, kept as its reference.
func f64sWordwise(e *buf, vs []float64) {
	for _, v := range vs {
		e.f64(v)
	}
}

func readF64sWordwise(r *reader, dst []float64) {
	for i := range dst {
		dst[i] = r.f64()
	}
}

// TestF64sMatchesWordwise: the bulk float codec writes and reads exactly the
// bytes and bits of one f64 call per word — signed zeros, infinities, NaN
// payloads and subnormals included — and a payload cut anywhere inside the
// block poisons the reader.
func TestF64sMatchesWordwise(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7FF0_0000_DEAD_BEEF), math.Float64frombits(0xFFF8_0000_0000_0001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000F_FFFF_FFFF_FFFF),
		math.MaxFloat64, 1, -1.5,
	}
	src := rng.New(3)
	for _, n := range []int{0, 1, 165, 65537} {
		vs := make([]float64, n)
		for i := range vs {
			if i%5 == 0 {
				vs[i] = special[(i/5)%len(special)]
			} else {
				vs[i] = math.Float64frombits(src.Uint64())
			}
		}
		var bulk, word buf
		bulk.u32(7) // a prefix: the block must land after what is already there
		word.u32(7)
		bulk.f64s(vs)
		f64sWordwise(&word, vs)
		if !bytes.Equal(bulk.bytes(), word.bytes()) {
			t.Fatalf("n=%d: bulk encoding differs from the wordwise one", n)
		}

		got, want := make([]float64, n), make([]float64, n)
		rb, rw := reader{b: bulk.bytes()}, reader{b: word.bytes()}
		rb.u32()
		rw.u32()
		rb.f64s(got)
		readF64sWordwise(&rw, want)
		if rb.done() != nil || rw.done() != nil {
			t.Fatalf("n=%d: decode errors %v / %v", n, rb.done(), rw.done())
		}
		for i := range want {
			if !bitsEqual(got[i], want[i]) || !bitsEqual(got[i], vs[i]) {
				t.Fatalf("n=%d: word %d decoded to %x, want %x", n, i, math.Float64bits(got[i]), math.Float64bits(vs[i]))
			}
		}
	}

	vs := []float64{1, 2, 3}
	var e buf
	e.f64s(vs)
	for cut := 0; cut < len(e.bytes()); cut++ {
		r := reader{b: e.bytes()[:cut]}
		dst := []float64{9, 9, 9}
		r.f64s(dst)
		if r.err == nil {
			t.Fatalf("payload cut at byte %d of %d decoded", cut, len(e.bytes()))
		}
		if r.u32(); r.err == nil {
			t.Fatalf("cut %d: poisoned reader recovered", cut)
		}
		if dst[0] != 9 || dst[1] != 9 || dst[2] != 9 {
			t.Fatalf("cut %d: a refused block wrote %v", cut, dst)
		}
	}
}

// referenceFold is the worker's reply path before results were encoded where
// they were trained, kept as the reference for it: every party through the
// cloning TrainLocalScratch into a locals slice, then the whole reply
// appended field by field and word by word once the pool has joined.
func referenceFold(j *workerJob, jobID, waveSeq uint64, sgd model.SGDConfig, ids []int, states [][4]uint64) []byte {
	locals := make([]model.LocalResult, len(ids))
	j.pool.ForEachWorker(len(ids), func(wk, i int) {
		local := j.replicas[wk]
		if local == nil {
			local = j.setup.Factory(rng.New(0))
			j.replicas[wk] = local
		}
		local.SetParams(j.params)
		locals[i] = model.TrainLocalScratch(local, j.setup.Parties[ids[i]-j.lo].Data, sgd, j.params, rng.FromState(states[i]), &j.scratches[wk])
	})
	var e buf
	e.u64(jobID)
	e.u64(waveSeq)
	e.u32(uint32(len(ids)))
	e.u32(uint32(len(j.params)))
	for i := range locals {
		lr := &locals[i]
		e.u32(uint32(lr.NumSamples))
		e.u32(uint32(lr.Steps))
		e.f64(lr.MeanLoss)
		e.f64(lr.SqLossMean)
		f64sWordwise(&e, lr.Params)
	}
	return e.bytes()
}

// goldenMLPBuilder is goldenBuilder with a hidden layer, so the seam tests
// also cross a model whose parameter vector is several bound matrices.
func goldenMLPBuilder(spec []byte, lo, hi int) (JobSetup, error) {
	setup, err := goldenBuilder(spec, lo, hi)
	if err != nil {
		return setup, err
	}
	var gs goldenSpec
	if err := json.Unmarshal(spec, &gs); err != nil {
		return JobSetup{}, err
	}
	_, _, ds, err := fl.GoldenJob(gs.Seed, gs.Parties, gs.Alpha)
	setup.Factory = model.MLPFactory(ds.Dim, 8, len(ds.LabelNames))
	return setup, err
}

// assignGolden seats job 9 = the 12-party golden fleet on a bare worker state.
func assignGolden(t *testing.T, builder Builder, width int) *workerState {
	t.Helper()
	w := &workerState{opt: WorkerOptions{Builder: builder, Parallelism: width}}
	spec := mustGoldenSpec(t)
	var e buf
	e.u64(9)
	e.u32(0)
	e.u32(12)
	e.u32(uint32(len(spec)))
	e.raw(spec)
	if _, _, err := w.assign(e.bytes()); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkerEncodesInPlaceMatchesClone: the reply a worker encodes straight
// from its replicas' live vectors is byte-identical to the clone-then-append
// reference, at pool widths 1 and 4, for LogReg and MLP, over consecutive
// waves that reuse the reply buffer.
func TestWorkerEncodesInPlaceMatchesClone(t *testing.T) {
	for name, builder := range map[string]Builder{"logreg": goldenBuilder, "mlp": goldenMLPBuilder} {
		for _, width := range []int{1, 4} {
			w, ref := assignGolden(t, builder, width), assignGolden(t, builder, width)
			dim := len(w.job.params)
			init := w.job.setup.Factory(rng.New(41)).Params()
			for wave, ids := range [][]int{{3, 0, 11, 7, 7, 2, 5}, {1}, {10, 9, 8, 6, 4, 3, 2, 1, 0}} {
				params := init.Clone()
				params.ScaleInPlace(1 + float64(wave)/7)
				frame := dispatchFrame(uint64(wave+1), uint64(wave), params, ids...)
				typ, got, err := w.dispatch(frame)
				if err != nil || typ != ftPartialFold {
					t.Fatalf("%s width %d wave %d: type %d err %v", name, width, wave, typ, err)
				}

				rj := ref.job
				copy(rj.params, params)
				states := make([][4]uint64, len(ids))
				for i, id := range ids {
					for k := range states[i] {
						states[i][k] = uint64(id*4 + k + 1)
					}
				}
				sgd := model.SGDConfig{LearningRate: 0.05, BatchSize: 16, LocalEpochs: 1}
				want := referenceFold(rj, 9, uint64(wave+1), sgd, ids, states)
				if len(got) != foldHeadLen+len(ids)*(foldPartyHeadLen+8*dim) {
					t.Fatalf("%s width %d wave %d: %d-byte reply for %d parties of dim %d", name, width, wave, len(got), len(ids), dim)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s width %d wave %d: in-place reply differs from the clone-then-append reference", name, width, wave)
				}
			}
		}
	}
}

// TestNaNParamsCrossTheSeam: a parameter vector of NaNs is data like any
// other — it is trained on and comes back, no panic, no protocol error; what
// to make of the result is the engine's call, as it is in-process.
func TestNaNParamsCrossTheSeam(t *testing.T) {
	w := assignGolden(t, goldenBuilder, 2)
	params := make([]float64, len(w.job.params))
	for i := range params {
		params[i] = math.NaN()
	}
	typ, reply, err := w.dispatch(dispatchFrame(1, 1, params, 0, 5))
	if err != nil || typ != ftPartialFold {
		t.Fatalf("type %d err %v", typ, err)
	}
	r := reader{b: reply[foldHeadLen+foldPartyHeadLen:]}
	if v := r.f64(); !math.IsNaN(v) {
		t.Fatalf("a NaN model trained to %v", v)
	}
}

// TestOversizedReplyIsRefusedBeforeTraining: a dispatch whose reply could not
// fit a frame is answered with an error naming the bound, before any party
// trains — the worker must not die on its own Send.
func TestOversizedReplyIsRefusedBeforeTraining(t *testing.T) {
	w := testWorker(t, 9, 1)
	n := wire.MaxFrame/(foldPartyHeadLen+8*6) + 1
	ids := make([]int, n) // party 0, n times: the dispatch fits, the fold cannot
	start := time.Now()
	_, _, err := w.dispatch(dispatchFrame(1, 1, []float64{1, 2, 3, 4, 5, 6}, ids...))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(wire.MaxFrame)) {
		t.Fatalf("err = %v, want a refusal naming the %d-byte bound", err, wire.MaxFrame)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("refusal took %v: the wave was trained first", el)
	}
	if got := w.job.version; got != unsyncedVersion {
		t.Fatalf("refused frame committed version %d", got)
	}
}

// TestUnfittableModelFailsTheJob: a model whose parameter vector exceeds one
// frame can never cross the seam. The wave must fail with an error naming the
// bound — not unregister the healthy worker, replay onto the next and end up
// waiting for a worker forever.
func TestUnfittableModelFailsTheJob(t *testing.T) {
	const dim, classes = 1 << 20, 2 // 2 Mi + 2 floats: 16 bytes over the frame bound
	coord, addr := startCoordinator(t)
	startWorker(t, addr, WorkerOptions{Builder: echoBuilder(dim, classes), Parallelism: 1})
	if err := coord.AwaitWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(coord, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()
	d := fl.TrainDispatch{
		IDs:       []int{0},
		RngStates: [][4]uint64{{1, 2, 3, 4}},
		Params:    tensor.NewVec(dim*classes + classes),
		Version:   1,
	}
	done := make(chan error, 1)
	go func() { done <- job.TrainWave(d, sizedResults(1, len(d.Params))) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(wire.MaxFrame)) {
			t.Fatalf("err = %v, want a refusal naming the %d-byte bound", err, wire.MaxFrame)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("wave hung on a frame that can never fit")
	}
	if got := coord.WorkerCount(); got != 1 {
		t.Fatalf("%d workers registered after the refusal, want the 1 healthy worker kept", got)
	}
	if st := job.Stats()[0]; !st.Connected {
		t.Fatalf("slot lost its worker: %+v", st)
	}
}

// TestLagCountsOnlyWavesSentToTheSlot: waves that address one slot leave the
// others with nothing outstanding — lag is waves sent to a slot and not yet
// completed, not the distance to the job's wave counter.
func TestLagCountsOnlyWavesSentToTheSlot(t *testing.T) {
	coord, addr := startCoordinator(t)
	for i := 0; i < 4; i++ {
		startWorker(t, addr, WorkerOptions{Builder: echoBuilder(2, 2), Parallelism: 1})
	}
	if err := coord.AwaitWorkers(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(coord, nil, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()
	d := fl.TrainDispatch{
		IDs:       []int{0, 1}, // both in slot 0's range [0, 2)
		RngStates: [][4]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}},
		Params:    tensor.NewVec(6),
	}
	out := sizedResults(2, len(d.Params))
	for v := 0; v < 5; v++ {
		d.Version = v
		if err := job.TrainWave(d, out); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range job.Stats() {
		wantWaves := uint64(0)
		if st.Slot == 0 {
			wantWaves = 5
		}
		if st.LagWaves != 0 || st.Waves != wantWaves {
			t.Fatalf("slot %d at rest: %d waves, lag %d; want %d waves, lag 0", st.Slot, st.Waves, st.LagWaves, wantWaves)
		}
	}
}

// scriptedWorker registers a hostile peer: it acks its shard assignment like a
// real worker, then answers each dispatch frame with whatever reply returns.
func scriptedWorker(t *testing.T, addr string, reply func(dispatch []byte) (byte, []byte)) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	peer := wire.NewCodec(conn, Version)
	if err := peer.Send(ftHello, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := peer.Recv(); err != nil || typ != ftHelloAck {
		t.Fatalf("hello: type %d err %v", typ, err)
	}
	go func() {
		for {
			typ, payload, err := peer.Recv()
			if err != nil {
				return
			}
			switch typ {
			case ftAssignShards:
				err = peer.Send(ftAssignAck, payload[:8])
			case ftDispatchWave:
				rt, rp := reply(payload)
				err = peer.Send(rt, rp)
			default:
				return
			}
			if err != nil {
				return
			}
		}
	}()
}

// foldFrame encodes a partial-fold reply of n zero results of dimension dim.
func foldFrame(job, wave uint64, n, dim int) []byte {
	var e buf
	e.u64(job)
	e.u64(wave)
	e.u32(uint32(n))
	e.u32(uint32(dim))
	e.grow(n * (foldPartyHeadLen + 8*dim))
	return e.bytes()
}

// TestHostileFoldRepliesNeverHang scripts workers that answer a dispatch with
// a fold for another job, another wave, another party count or another
// dimension, or with a fold cut short. A header that contradicts the dispatch
// fails the wave — any worker handed the same frame would be expected to echo
// it, so there is nothing to retry; a malformed body is a broken peer, which
// is dropped and the wave replayed on the real worker that registers next.
func TestHostileFoldRepliesNeverHang(t *testing.T) {
	d := fl.TrainDispatch{
		IDs:       []int{0, 1},
		RngStates: [][4]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}},
		Params:    tensor.Vec{1, 2, 3, 4, 5, 6},
		Version:   3,
	}
	wave := func(t *testing.T, job *Job) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- job.TrainWave(d, sizedResults(2, len(d.Params))) }()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("wave hung on a hostile fold")
			return nil
		}
	}
	for name, fold := range map[string]func(job, wave uint64) []byte{
		"wrong job":  func(j, w uint64) []byte { return foldFrame(j+1, w, 2, 6) },
		"wrong wave": func(j, w uint64) []byte { return foldFrame(j, w+1, 2, 6) },
		"wrong n":    func(j, w uint64) []byte { return foldFrame(j, w, 3, 6) },
		"wrong dim":  func(j, w uint64) []byte { return foldFrame(j, w, 2, 5) },
	} {
		coord, addr := startCoordinator(t)
		scriptedWorker(t, addr, func(p []byte) (byte, []byte) {
			return ftPartialFold, fold(binary.BigEndian.Uint64(p), binary.BigEndian.Uint64(p[8:]))
		})
		if err := coord.AwaitWorkers(1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		job, err := NewJob(coord, nil, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := wave(t, job); err == nil || !strings.Contains(err.Error(), "does not match dispatch") {
			t.Fatalf("%s: err = %v, want the fold header refused", name, err)
		}
		job.Close()
		coord.Close()
	}

	for name, cut := range map[string]int{"truncated body": 1, "header only": 2 * (foldPartyHeadLen + 8*6), "trailing byte": -1} {
		coord, addr := startCoordinator(t)
		scriptedWorker(t, addr, func(p []byte) (byte, []byte) {
			f := foldFrame(binary.BigEndian.Uint64(p), binary.BigEndian.Uint64(p[8:]), 2, 6)
			if cut < 0 {
				return ftPartialFold, append(f, 0)
			}
			return ftPartialFold, f[:len(f)-cut]
		})
		if err := coord.AwaitWorkers(1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		job, err := NewJob(coord, nil, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		startWorker(t, addr, WorkerOptions{Builder: echoBuilder(2, 2), Parallelism: 1})
		if err := wave(t, job); err != nil {
			t.Fatalf("%s: wave did not recover on the real worker: %v", name, err)
		}
		if st := job.Stats()[0]; !st.Connected || st.LagWaves != 0 || coord.WorkerCount() != 1 {
			t.Fatalf("%s: slot %+v with %d workers registered, want the hostile peer gone and the real one seated", name, st, coord.WorkerCount())
		}
		job.Close()
		coord.Close()
	}
}

// TestReplyToStalledCoordinatorTimesOut scripts a coordinator that registers
// a worker, assigns it a job, dispatches a wave whose 10 MB reply cannot fit
// the socket buffers, and never reads again while keeping the socket open.
// The worker's reply must give up after frameTimeout and ServeConn return,
// not block in Send for the connection's lifetime.
func TestReplyToStalledCoordinatorTimesOut(t *testing.T) {
	old := frameTimeout
	frameTimeout = time.Second
	t.Cleanup(func() { frameTimeout = old })

	const dim, classes, parties = 40000, 2, 16 // 640 KB of parameters echoed per party
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		// A fixed send buffer: however the host tunes TCP, the reply outgrows it.
		if err := conn.(*net.TCPConn).SetWriteBuffer(64 << 10); err != nil {
			served <- err
			return
		}
		served <- ServeConn(conn, WorkerOptions{Builder: echoBuilder(dim, classes), Parallelism: 1})
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	coord := wire.NewCodec(conn, Version)
	if typ, _, err := coord.Recv(); err != nil || typ != ftHello {
		t.Fatalf("hello: type %d err %v", typ, err)
	}
	if err := coord.Send(ftHelloAck, nil); err != nil {
		t.Fatal(err)
	}
	if err := coord.Send(ftAssignShards, assignFrame(9, parties)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := coord.Recv(); err != nil || typ != ftAssignAck {
		t.Fatalf("assignment: type %d err %v", typ, err)
	}
	ids := make([]int, parties)
	for i := range ids {
		ids[i] = i
	}
	if err := coord.Send(ftDispatchWave, dispatchFrame(1, 1, make([]float64, dim*classes+classes), ids...)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("ServeConn returned %v, want the reply's write deadline", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker still blocked replying to a coordinator that stopped reading")
	}
}

// FuzzDispatchFrame feeds arbitrary payloads to a worker holding a tiny
// assigned job: it must never panic, and whatever it does not refuse it
// answers with a well-formed fold that echoes the frame's job and wave.
func FuzzDispatchFrame(f *testing.F) {
	six := []float64{1, 2, 3, 4, 5, 6}
	good := dispatchFrame(1, 5, six, 0, 3)
	f.Add([]byte{})
	f.Add(good)
	f.Add(dispatchFrame(2, 5, nil, 1))     // paramless: refused while unsynced
	f.Add(good[:dispatchHeadLen-4+8*3])    // cut inside the params section
	f.Add(dispatchFrame(1, 5, six[:4], 0)) // wrong paramCount
	f.Add(dispatchFrame(1, 5, six, 9))     // party outside the range
	f.Add(dispatchFrame(1, 5, []float64{math.NaN(), 0, 0, 0, 0, math.Inf(1)}, 2))
	f.Add(append(append([]byte(nil), good[:dispatchHeadLen-4+8*6]...), 0xFF, 0xFF, 0xFF, 0xFF)) // n = 2^32-1, no parties
	f.Fuzz(func(t *testing.T, payload []byte) {
		w := testWorker(t, 9, 4)
		for round := 0; round < 2; round++ { // twice: the second call meets whatever state the first left
			typ, reply, err := w.dispatch(payload)
			if err != nil {
				continue
			}
			r := reader{b: payload}
			jobID, wave := r.u64(), r.u64()
			fr := reader{b: reply}
			if typ != ftPartialFold || fr.u64() != jobID || fr.u64() != wave {
				t.Fatalf("accepted frame answered with type %d for job/wave other than its own", typ)
			}
			n, dim := int(fr.u32()), int(fr.u32())
			if dim != 6 || len(reply) != foldHeadLen+n*(foldPartyHeadLen+8*dim) {
				t.Fatalf("fold of %d bytes announces n=%d dim=%d", len(reply), n, dim)
			}
			if w.job.version == unsyncedVersion {
				t.Fatal("worker trained a wave while unsynced")
			}
		}
	})
}

// BenchmarkDistWave is one 16-party wave of the ecg LogReg golden fleet
// through two loopback workers, the version bumped every iteration — the
// buffered fleet job's steady state: every frame carries the parameters. The
// workers run in this process, so allocs/op counts both sides of the seam:
// the 16 result vectors the engine retains, plus a per-wave constant (slot
// goroutines, pool closures) that no party adds to.
func BenchmarkDistWave(b *testing.B) {
	coord := NewCoordinator()
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	spec, err := json.Marshal(goldenSpec{Seed: 1001, Parties: 32, Alpha: 0.4})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		go func() { _ = RunWorker(addr, WorkerOptions{Builder: goldenBuilder, Parallelism: 1}) }()
	}
	if err := coord.AwaitWorkers(2, 5*time.Second); err != nil {
		b.Fatal(err)
	}
	job, err := NewJob(coord, spec, 32, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer job.Close()
	_, _, ds, err := fl.GoldenJob(1001, 32, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	d := fl.TrainDispatch{
		Params: model.LogRegFactory(ds.Dim, len(ds.LabelNames))(rng.New(1)).Params(),
		SGD:    model.SGDConfig{LearningRate: 0.05, BatchSize: 16, LocalEpochs: 1},
	}
	for id := 0; id < 32; id += 2 {
		d.IDs = append(d.IDs, id)
		d.RngStates = append(d.RngStates, rng.New(uint64(id)).State())
	}
	out := sizedResults(len(d.IDs), len(d.Params))
	wave := func() {
		d.Version++
		if err := job.TrainWave(d, out); err != nil {
			b.Fatal(err)
		}
	}
	wave() // warm both workers' replicas, scratch and reply buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
}
