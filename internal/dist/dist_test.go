package dist

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"flips/internal/fl"
	"flips/internal/model"
	"flips/internal/rng"
	"flips/internal/tensor"
	"flips/internal/wire"
)

// goldenSpec is the job spec the loopback tests ship to workers: just enough
// for fl.GoldenJob to rebuild the golden fleet deterministically on the
// worker side of the wire.
type goldenSpec struct {
	Seed    uint64  `json:"seed"`
	Parties int     `json:"parties"`
	Alpha   float64 `json:"alpha"`
}

func goldenBuilder(spec []byte, lo, hi int) (JobSetup, error) {
	var gs goldenSpec
	if err := json.Unmarshal(spec, &gs); err != nil {
		return JobSetup{}, err
	}
	parties, _, dsSpec, err := fl.GoldenJob(gs.Seed, gs.Parties, gs.Alpha)
	if err != nil {
		return JobSetup{}, err
	}
	if hi > len(parties) {
		return JobSetup{}, fmt.Errorf("range [%d,%d) beyond %d parties", lo, hi, len(parties))
	}
	return JobSetup{
		Parties: parties[lo:hi],
		Factory: model.LogRegFactory(dsSpec.Dim, len(dsSpec.LabelNames)),
	}, nil
}

func mustGoldenSpec(t *testing.T) []byte {
	t.Helper()
	spec, err := json.Marshal(goldenSpec{Seed: 1001, Parties: 12, Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// startCoordinator listens on loopback and registers cleanup.
func startCoordinator(t *testing.T) (*Coordinator, string) {
	t.Helper()
	coord := NewCoordinator()
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, addr
}

// startWorker dials the coordinator and serves the worker protocol on a
// background goroutine, returning the connection so tests can kill it.
func startWorker(t *testing.T, addr string, opt WorkerOptions) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ServeConn(conn, opt) }()
	t.Cleanup(func() { conn.Close() })
	return conn
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireIdenticalResults asserts got is byte-identical to want: every float
// compared as IEEE-754 bit patterns (NaN-exact), every counter exactly.
func requireIdenticalResults(t *testing.T, label string, want, got *fl.Result) {
	t.Helper()
	if len(got.FinalParams) != len(want.FinalParams) {
		t.Fatalf("%s: %d final params, want %d", label, len(got.FinalParams), len(want.FinalParams))
	}
	for i := range want.FinalParams {
		if !bitsEqual(want.FinalParams[i], got.FinalParams[i]) {
			t.Fatalf("%s: FinalParams[%d] = %x, want %x", label, i,
				math.Float64bits(got.FinalParams[i]), math.Float64bits(want.FinalParams[i]))
		}
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: %d history entries, want %d", label, len(got.History), len(want.History))
	}
	for i := range want.History {
		w, g := want.History[i], got.History[i]
		if g.Round != w.Round || g.Invited != w.Invited || g.Completed != w.Completed ||
			g.CommBytes != w.CommBytes || g.ShardsTouched != w.ShardsTouched ||
			g.Rejected != w.Rejected || g.MaskAborted != w.MaskAborted {
			t.Fatalf("%s: history[%d] counters diverge: got %+v want %+v", label, i, g, w)
		}
		if !bitsEqual(w.Accuracy, g.Accuracy) || !bitsEqual(w.MeanLoss, g.MeanLoss) ||
			!bitsEqual(w.RoundTime, g.RoundTime) || !bitsEqual(w.SimTime, g.SimTime) {
			t.Fatalf("%s: history[%d] floats diverge: got %+v want %+v", label, i, g, w)
		}
		if len(w.PerLabel) != len(g.PerLabel) {
			t.Fatalf("%s: history[%d] has %d labels, want %d", label, i, len(g.PerLabel), len(w.PerLabel))
		}
		for k := range w.PerLabel {
			if !bitsEqual(w.PerLabel[k], g.PerLabel[k]) {
				t.Fatalf("%s: history[%d] PerLabel[%d] diverges", label, i, k)
			}
		}
	}
	if !bitsEqual(want.PeakAccuracy, got.PeakAccuracy) || got.RoundsToTarget != want.RoundsToTarget ||
		!bitsEqual(want.SimTime, got.SimTime) || !bitsEqual(want.TimeToTarget, got.TimeToTarget) ||
		got.TotalCommBytes != want.TotalCommBytes {
		t.Fatalf("%s: summary diverges: got %+v want %+v", label, got, want)
	}
}

// TestGoldenRunsAreWireInvariant is the wire variant of the fl package's
// shard-invariance golden suite: every pinned golden trajectory, replayed
// through loopback TCP workers at worker counts 1–4, must be byte-identical
// to the in-process run.
func TestGoldenRunsAreWireInvariant(t *testing.T) {
	spec := mustGoldenSpec(t)
	for name, mk := range fl.GoldenConfigs() {
		t.Run(name, func(t *testing.T) {
			baseCfg, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			base, err := fl.Run(baseCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 4} {
				coord, addr := startCoordinator(t)
				for i := 0; i < workers; i++ {
					startWorker(t, addr, WorkerOptions{Builder: goldenBuilder})
				}
				if err := coord.AwaitWorkers(workers, 5*time.Second); err != nil {
					t.Fatal(err)
				}
				job, err := NewJob(coord, spec, 12, workers)
				if err != nil {
					t.Fatal(err)
				}
				cfg, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				cfg.Transport = job
				got, err := fl.Run(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				stats := job.Stats()
				job.Close()
				if err := coord.Close(); err != nil {
					t.Fatalf("workers=%d: close: %v", workers, err)
				}
				requireIdenticalResults(t, fmt.Sprintf("workers=%d", workers), base, got)
				if len(stats) != min(workers, 12) {
					t.Fatalf("workers=%d: %d stat slots", workers, len(stats))
				}
				for _, st := range stats {
					if st.Waves == 0 || st.BytesIn == 0 || st.BytesOut == 0 {
						t.Fatalf("workers=%d: idle slot in stats: %+v", workers, st)
					}
				}
			}
		})
	}
}

// killingTransport wraps a Job and severs one worker's connection right as a
// chosen wave dispatches — the process-kill simulation for the recovery
// test. The replacement worker is spawned at the same moment, so the slot
// reattaches by replaying assignment + checkpoint + the identical wave.
type killingTransport struct {
	*Job
	victim   net.Conn
	spawn    func()
	killWave int
	wave     int
	killed   bool
}

func (k *killingTransport) TrainWave(d fl.TrainDispatch, out []model.LocalResult) error {
	k.wave++
	if k.wave == k.killWave && !k.killed {
		k.killed = true
		k.victim.Close()
		k.spawn()
	}
	return k.Job.TrainWave(d, out)
}

// TestWorkerKillMidWaveReplaysByteIdentical kills one of two workers
// mid-run, lets a fresh worker register, and requires the recovered run —
// shard assignment and parameter checkpoint replayed onto the replacement —
// to be byte-identical to the undisturbed in-process run. Uses the chaos
// golden: the most adversarial pinned trajectory (outages, surges, byzantine
// faults, trimmed-mean fold).
func TestWorkerKillMidWaveReplaysByteIdentical(t *testing.T) {
	spec := mustGoldenSpec(t)
	baseCfg, err := fl.GoldenChaosConfig()
	if err != nil {
		t.Fatal(err)
	}
	base, err := fl.Run(baseCfg)
	if err != nil {
		t.Fatal(err)
	}

	coord, addr := startCoordinator(t)
	victim := startWorker(t, addr, WorkerOptions{Builder: goldenBuilder})
	startWorker(t, addr, WorkerOptions{Builder: goldenBuilder})
	if err := coord.AwaitWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(coord, spec, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := fl.GoldenChaosConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = &killingTransport{
		Job:      job,
		victim:   victim,
		killWave: 3,
		spawn:    func() { startWorker(t, addr, WorkerOptions{Builder: goldenBuilder}) },
	}
	got, err := fl.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "kill+reconnect", base, got)

	// The recovery must be visible in the slot stats: both slots finished
	// every wave (no lag), and the victim's slot reattached.
	for _, st := range job.Stats() {
		if st.LagWaves != 0 || !st.Connected {
			t.Fatalf("slot not recovered: %+v", st)
		}
	}
	job.Close()
}

// TestStatsCountOnlyThisJobsBytes runs the same job twice over one worker
// connection. The codec's byte counters run for the connection's life; a
// slot's JobBytes must report only what its job moved, so the second job's
// equal the first's instead of starting from them.
func TestStatsCountOnlyThisJobsBytes(t *testing.T) {
	spec := mustGoldenSpec(t)
	coord, addr := startCoordinator(t)
	startWorker(t, addr, WorkerOptions{Builder: goldenBuilder})
	if err := coord.AwaitWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var runs [2]WorkerStat
	for i := range runs {
		job, err := NewJob(coord, spec, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := fl.GoldenLegacyConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Transport = job
		if _, err := fl.Run(cfg); err != nil {
			t.Fatal(err)
		}
		runs[i] = job.Stats()[0]
		job.Close()
	}
	if runs[0].JobBytesIn == 0 || runs[0].JobBytesOut == 0 {
		t.Fatalf("first job moved no bytes: %+v", runs[0])
	}
	if runs[1].JobBytesIn != runs[0].JobBytesIn || runs[1].JobBytesOut != runs[0].JobBytesOut {
		t.Fatalf("second job on the same connection reports in=%d out=%d, want the first job's in=%d out=%d",
			runs[1].JobBytesIn, runs[1].JobBytesOut, runs[0].JobBytesIn, runs[0].JobBytesOut)
	}
	if got := runs[1].BytesIn - runs[0].BytesIn; got != runs[1].JobBytesIn {
		t.Fatalf("connection total grew by %d over the second job, which reports %d", got, runs[1].JobBytesIn)
	}
}

// TestSilentWorkerIsReplacedAfterFrameTimeout scripts a hostile peer: it
// registers, accepts its shard assignment, then never answers again while
// keeping its socket open. The first wave must time out, drop it and replay
// onto a real worker, bit-equal to the in-process run — not hang.
func TestSilentWorkerIsReplacedAfterFrameTimeout(t *testing.T) {
	old := frameTimeout
	frameTimeout = time.Second
	t.Cleanup(func() { frameTimeout = old })

	spec := mustGoldenSpec(t)
	baseCfg, err := fl.GoldenLegacyConfig()
	if err != nil {
		t.Fatal(err)
	}
	base, err := fl.Run(baseCfg)
	if err != nil {
		t.Fatal(err)
	}

	coord, addr := startCoordinator(t)
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
	assigned := make(chan error, 1)
	go func() {
		typ, payload, err := peer.Recv()
		if err == nil && typ != ftAssignShards {
			err = fmt.Errorf("frame type %d, want assign-shards", typ)
		}
		if err == nil {
			err = peer.Send(ftAssignAck, payload[:8]) // the job ID
		}
		assigned <- err
		// Silent from here on; the deferred conn.Close ends the script.
	}()

	if err := coord.AwaitWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(coord, spec, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()
	if err := <-assigned; err != nil {
		t.Fatal(err)
	}
	startWorker(t, addr, WorkerOptions{Builder: goldenBuilder})

	cfg, err := fl.GoldenLegacyConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = job
	type outcome struct {
		res *fl.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := fl.Run(cfg)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		requireIdenticalResults(t, "silent worker replaced", base, o.res)
	case <-time.After(30 * time.Second):
		t.Fatal("job hung on a worker that stopped answering")
	}
	if st := job.Stats()[0]; !st.Connected || st.LagWaves != 0 {
		t.Fatalf("slot not recovered: %+v", st)
	}
}

// echoBuilder builds data-free parties: training an empty party returns the
// model's current parameters unchanged, so a dispatch round-trip echoes back
// exactly the parameter vector the worker holds.
func echoBuilder(dim, classes int) Builder {
	return func(spec []byte, lo, hi int) (JobSetup, error) {
		parties := make([]*fl.Party, hi-lo)
		for i := range parties {
			parties[i] = &fl.Party{ID: lo + i, Data: nil}
		}
		return JobSetup{Parties: parties, Factory: model.LogRegFactory(dim, classes)}, nil
	}
}

// TestCheckpointChunkingStreamsLargeParams: a parameter vector larger than
// the old 64 Ki-float checkpoint chunk crosses in the dispatch frame itself,
// and a data-free wave echoes it back bit-exactly — what the in-process
// engine's TrainLocalScratch returns for the same parties.
func TestCheckpointChunkingStreamsLargeParams(t *testing.T) {
	const dim, classes = 40000, 2 // 80002 params, 640 KB on the wire
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

	params := tensor.NewVec(dim*classes + classes)
	if len(params) <= 64*1024 {
		t.Fatalf("test vector (%d floats) does not exceed 64 Ki", len(params))
	}
	for i := range params {
		params[i] = math.Sqrt(float64(i)) * math.Copysign(1, math.Sin(float64(i)))
	}
	d := fl.TrainDispatch{
		IDs:       []int{0, 1},
		RngStates: [][4]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}},
		Params:    params,
		Version:   7,
		SGD:       model.SGDConfig{LearningRate: 0.05, BatchSize: 16, LocalEpochs: 1},
	}
	out := make([]model.LocalResult, 2)
	if err := job.TrainWave(d, out); err != nil {
		t.Fatal(err)
	}
	local := model.LogRegFactory(dim, classes)(rng.New(0))
	for p, lr := range out {
		local.SetParams(params)
		var scratch model.TrainScratch
		want := model.TrainLocalScratch(local, nil, d.SGD, params, rng.FromState(d.RngStates[p]), &scratch)
		if lr.NumSamples != want.NumSamples || lr.Steps != want.Steps || len(lr.Params) != len(want.Params) {
			t.Fatalf("party %d: got %d samples %d steps %d params, want %d %d %d", p,
				lr.NumSamples, lr.Steps, len(lr.Params), want.NumSamples, want.Steps, len(want.Params))
		}
		for i := range want.Params {
			if !bitsEqual(want.Params[i], lr.Params[i]) {
				t.Fatalf("party %d param %d corrupted in transit", p, i)
			}
		}
	}

	// Same version again: the frame carries no parameters (the dispatch
	// succeeds against the worker's retained copy and moves few bytes).
	before := job.Stats()[0].BytesOut
	if err := job.TrainWave(d, out); err != nil {
		t.Fatal(err)
	}
	if sent := job.Stats()[0].BytesOut - before; sent > 1024 {
		t.Fatalf("second wave at the same version sent %d bytes: the parameters crossed again", sent)
	}
}

// testWorker assigns job `id` with parties [0, hi) of a data-free LogReg(2,2)
// fleet (6 parameters) to a bare worker state machine.
func testWorker(t *testing.T, id uint64, hi int) *workerState {
	t.Helper()
	w := &workerState{
		opt: WorkerOptions{Builder: echoBuilder(2, 2), Parallelism: 1},
	}
	typ, _, err := w.assign(assignFrame(id, hi))
	if err != nil || typ != ftAssignAck {
		t.Fatalf("assign: type %d err %v", typ, err)
	}
	return w
}

// assignFrame encodes an ftAssignShards payload: job id, parties [0, hi), no
// spec.
func assignFrame(id uint64, hi int) []byte {
	var e buf
	e.u64(id)
	e.u32(0) // lo
	e.u32(uint32(hi))
	e.u32(0) // spec length
	return e.bytes()
}

// dispatchFrame encodes an ftDispatchWave payload for job 9: params is the
// parameter section (nil: paramCount 0), ids the wave's parties.
func dispatchFrame(wave, version uint64, params []float64, ids ...int) []byte {
	var e buf
	e.u64(9)
	e.u64(wave)
	e.u64(version)
	e.f64(0.05) // learning rate
	e.u32(16)   // batch
	e.u32(1)    // epochs
	e.f64(0)    // prox mu
	e.f64(0)    // max grad norm
	e.u32(uint32(len(params)))
	e.f64s(params)
	e.u32(uint32(len(ids)))
	for _, id := range ids {
		e.u32(uint32(id))
		for k := 0; k < 4; k++ {
			e.u64(uint64(id*4 + k + 1))
		}
	}
	return e.bytes()
}

// TestDispatchBeforeCheckpointFails: a dispatch that carries no parameters to
// a worker that holds none draws an explicit protocol error, not garbage
// training — and so does one at a version the worker is not at.
func TestDispatchBeforeCheckpointFails(t *testing.T) {
	w := testWorker(t, 9, 4)
	if _, _, err := w.dispatch(dispatchFrame(1, 0, nil)); err == nil {
		t.Fatal("dispatch against unsynced params succeeded")
	}
	if _, _, err := w.dispatch(dispatchFrame(2, 5, []float64{1, 2, 3, 4, 5, 6}, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.dispatch(dispatchFrame(3, 5, nil, 1)); err != nil {
		t.Fatalf("dispatch at the synced version: %v", err)
	}
	if _, _, err := w.dispatch(dispatchFrame(4, 6, nil, 1)); err == nil {
		t.Fatal("dispatch at a stale version with no parameters succeeded")
	}
	if got := w.job.version; got != 5 {
		t.Fatalf("a refused paramless dispatch moved the version to %d", got)
	}
}

// TestCheckpointCommitsOnlyOnCoveringChunk: the worker's version moves only
// when a dispatch frame's whole parameter section — and the rest of the frame
// — decoded. A section cut short, of the wrong length, or followed by a
// malformed party list leaves the job unsynced, so the next paramless
// dispatch is refused instead of training on a half-written vector.
func TestCheckpointCommitsOnlyOnCoveringChunk(t *testing.T) {
	full := []float64{1, 2, 3, 4, 5, 6}
	good := dispatchFrame(1, 5, full, 0)
	bad := map[string][]byte{
		"truncated inside the section":      good[:dispatchHeadLen-4+8*3],
		"truncated at the section's end":    good[:dispatchHeadLen-4+8*6],
		"paramCount beyond the payload":     dispatchFrame(1, 5, make([]float64, 6))[:dispatchHeadLen-4+8],
		"paramCount below the model's dim":  dispatchFrame(1, 5, full[:4], 0),
		"paramCount above the model's dim":  dispatchFrame(1, 5, append(full[:6:6], 7), 0),
		"party outside the range":           dispatchFrame(1, 5, full, 7),
		"party list shorter than announced": good[:len(good)-1],
		"trailing bytes":                    append(append([]byte(nil), good...), 0),
	}
	for name, frame := range bad {
		w := testWorker(t, 9, 4)
		if _, _, err := w.dispatch(dispatchFrame(1, 4, full, 0)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.dispatch(frame); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if got := w.job.version; got == 5 {
			t.Fatalf("%s: version committed", name)
		}
		// Whatever was refused, the worker recovers on the next full frame.
		typ, _, err := w.dispatch(good)
		if err != nil || typ != ftPartialFold {
			t.Fatalf("%s: recovery dispatch: type %d err %v", name, typ, err)
		}
	}

	w := testWorker(t, 9, 4)
	if _, _, err := w.dispatch(good); err != nil {
		t.Fatal(err)
	}
	if got := w.job.version; got != 5 {
		t.Fatalf("covering section left version %d, want 5", got)
	}
	for i, v := range full {
		if !bitsEqual(w.job.params[i], v) {
			t.Fatalf("params[%d] = %v, want %v", i, w.job.params[i], v)
		}
	}
	// A refused section that got as far as overwriting parameters must not
	// leave the old version standing over them.
	if _, _, err := w.dispatch(bad["party outside the range"]); err == nil {
		t.Fatal("out-of-range party accepted")
	}
	if got := w.job.version; got != unsyncedVersion {
		t.Fatalf("rejected params section left version %d, want unsynced", got)
	}
}

// TestSecondAssignmentReplacesTheFirstJob: a connection holds the one job its
// coordinator last assigned. A dispatch that names the job assigned before it
// — or one never assigned — draws the explicit unknown-job error, not a wave
// trained on a shard the coordinator no longer believes is there.
func TestSecondAssignmentReplacesTheFirstJob(t *testing.T) {
	w := testWorker(t, 9, 4)
	six := []float64{1, 2, 3, 4, 5, 6}
	if _, _, err := w.dispatch(dispatchFrame(1, 5, six, 0)); err != nil {
		t.Fatal(err)
	}
	first := w.job
	var e buf
	e.u64(10)
	e.u32(0)
	e.u32(4)
	e.u32(0)
	if typ, _, err := w.assign(e.bytes()); err != nil || typ != ftAssignAck {
		t.Fatalf("second assign: type %d err %v", typ, err)
	}
	if w.job == first || w.jobID != 10 {
		t.Fatalf("worker still holds job %d's state after job 10 was assigned", w.jobID)
	}
	_, _, err := w.dispatch(dispatchFrame(2, 5, six, 0)) // dispatchFrame addresses job 9
	if err == nil || !strings.Contains(err.Error(), "unknown job 9") {
		t.Fatalf("dispatch for the replaced job: err = %v, want unknown job 9", err)
	}
	// A refused assignment leaves no job at all: the coordinator drops a
	// worker that cannot take one, so nothing may answer for the old ID.
	w.opt.Builder = func([]byte, int, int) (JobSetup, error) { return JobSetup{}, fmt.Errorf("no such dataset") }
	e.reset()
	e.u64(11)
	e.u32(0)
	e.u32(4)
	e.u32(0)
	if _, _, err := w.assign(e.bytes()); err == nil {
		t.Fatal("assignment with a failing builder accepted")
	}
	if w.job != nil {
		t.Fatalf("job %d survived a refused reassignment", w.jobID)
	}
}

// TestMaxWavePartiesRespectsFrameBound: the batch bound must keep both the
// dispatch and the partial-fold frame under the wire's frame cap, and never
// starve (at least one party per batch, however large the model).
func TestMaxWavePartiesRespectsFrameBound(t *testing.T) {
	for _, dim := range []int{0, 1, 100, 10_000, 10_000_000} {
		n := maxWaveParties(dim)
		if n < 1 {
			t.Fatalf("dim %d: bound %d", dim, n)
		}
		foldBytes := foldHeadLen + n*(foldPartyHeadLen+8*dim)
		if n > 1 && foldBytes > wire.MaxFrame {
			t.Fatalf("dim %d: %d parties would overflow the fold frame (%d bytes)", dim, n, foldBytes)
		}
		dispatchBytes := dispatchHeadLen + 8*dim + n*dispatchPartyLen
		if n > 1 && dispatchBytes > wire.MaxFrame {
			t.Fatalf("dim %d: %d parties would overflow the dispatch frame (%d bytes)", dim, n, dispatchBytes)
		}
		if more := n + 1; foldHeadLen+more*(foldPartyHeadLen+8*dim) <= wire.MaxFrame &&
			dispatchHeadLen+8*dim+more*dispatchPartyLen <= wire.MaxFrame {
			t.Fatalf("dim %d: bound %d, but %d parties fit both frames", dim, n, more)
		}
	}
}

// TestReaderPoisonsOnTruncation: every decode past the end fails once and
// stays failed; done() reports leftovers.
func TestReaderPoisonsOnTruncation(t *testing.T) {
	r := reader{b: []byte{1, 2, 3}}
	if r.u64(); r.err == nil {
		t.Fatal("u64 over 3 bytes succeeded")
	}
	if r.u32(); r.err == nil {
		t.Fatal("poisoned reader recovered")
	}

	var e buf
	e.u32(7)
	e.u32(8)
	r2 := reader{b: e.bytes()}
	if got := r2.u32(); got != 7 {
		t.Fatalf("decoded %d", got)
	}
	if err := r2.done(); err == nil {
		t.Fatal("done ignored trailing bytes")
	}
}

// TestCoordinatorCloseUnblocksJobCreation: a NewJob waiting for workers that
// never arrive must fail when the coordinator closes instead of hanging.
func TestCoordinatorCloseUnblocksJobCreation(t *testing.T) {
	coord, _ := startCoordinator(t)
	errCh := make(chan error, 1)
	go func() {
		_, err := NewJob(coord, nil, 4, 2)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	coord.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("NewJob succeeded with no workers")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NewJob still blocked after Close")
	}
}

// TestConcurrentJobsClaimWorkersTogether: two jobs that each want both of
// two registered workers must take turns. Claiming one worker at a time let
// each hold one and wait for the other's forever.
func TestConcurrentJobsClaimWorkersTogether(t *testing.T) {
	coord, addr := startCoordinator(t)
	for i := 0; i < 2; i++ {
		startWorker(t, addr, WorkerOptions{Builder: goldenBuilder})
	}
	if err := coord.AwaitWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	spec := mustGoldenSpec(t)
	done := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				job, err := NewJob(coord, spec, 12, 2)
				if err != nil {
					done <- err
					return
				}
				job.Close()
			}
			done <- nil
		}()
	}
	for g := 0; g < 2; g++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("two NewJob calls deadlocked, each holding one of the two workers")
		}
	}
}
