package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"time"

	"flips"
	"flips/internal/chaos"
	"flips/internal/core"
	"flips/internal/dataset"
	"flips/internal/device"
	"flips/internal/dist"
	"flips/internal/experiment"
	"flips/internal/fl"
	"flips/internal/model"
	"flips/internal/parallel"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the ID of the span that
// caused it (0 for a job's root span) and Job ties one job's spans together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. Spans are recorded
// from the benchmark's own files around the calls into each layer; nothing
// inside the program under test is instrumented.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(job, name string, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mark records a zero-length span: a round boundary.
func (t *tracer) mark(job, name string, parent int) { t.end(t.begin(job, name, parent)) }

// writeNDJSON writes one span per line.
func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	calls   int
	totalNs int64
	durs    []int64
}

func (s spanStats) ms() float64 { return float64(s.totalNs) / 1e6 }

// quantileUs is the q-quantile of the span durations in microseconds.
func (s spanStats) quantileUs(q float64) float64 {
	if len(s.durs) == 0 {
		return 0
	}
	d := append([]int64(nil), s.durs...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[int(q*float64(len(d)-1)+0.5)]) / 1e3
}

// byName aggregates every closed span by name, and sums, per parent name,
// the time its direct children cover (children of one engine run never
// overlap: the engine calls its seams from a single goroutine).
func (t *tracer) byName() (stats map[string]spanStats, childNs map[string]int64) {
	stats = make(map[string]spanStats)
	childNs = make(map[string]int64)
	for _, s := range t.spans {
		st := stats[s.Name]
		st.calls++
		st.totalNs += s.End - s.Start
		st.durs = append(st.durs, s.End-s.Start)
		stats[s.Name] = st
		if s.Parent > 0 {
			childNs[t.spans[s.Parent-1].Name] += s.End - s.Start
		}
	}
	return stats, childNs
}

// Span names. The seam spans are children of spanRun.
const (
	spanJob      = "job"
	spanBuild    = "experiment.Build"
	spanNewJob   = "dist.NewJob"
	spanRun      = "fl.Run"
	spanSelect   = "Selector.Select"
	spanObserve  = "Selector.Observe"
	spanApply    = "ServerOptimizer.Apply"
	spanWave     = "Transport.TrainWave"
	spanRoundEnd = "round"
	// spanClusters is the benchmark's own coverage bookkeeping, kept out of
	// the overhead comparison.
	spanClusters = "benchmark.labelClusters"
)

// tracedSelector decorates fl.Config.Selector: it times Select and Observe,
// counts invitations and folded updates, and measures how many of the fleet's
// label clusters each cohort covers — the mechanism the paper credits.
type tracedSelector struct {
	inner  fl.Selector
	t      *tracer
	job    string
	parent int

	clusterOf []int // party -> label cluster
	clusters  int
	stamp     []int // cluster -> last Select call that saw it
	calls     int

	invited, folded int
	coverageSum     float64
}

func (s *tracedSelector) Name() string { return s.inner.Name() }

func (s *tracedSelector) Select(round, target int) []int {
	id := s.t.begin(s.job, spanSelect, s.parent)
	ids := s.inner.Select(round, target)
	s.t.end(id)
	s.calls++
	s.invited += len(ids)
	if s.clusters > 0 && len(ids) > 0 {
		seen := 0
		for _, p := range ids {
			if c := s.clusterOf[p]; s.stamp[c] != s.calls {
				s.stamp[c] = s.calls
				seen++
			}
		}
		s.coverageSum += float64(seen) / float64(s.clusters)
	}
	return ids
}

func (s *tracedSelector) Observe(fb fl.RoundFeedback) {
	s.folded += len(fb.Completed)
	id := s.t.begin(s.job, spanObserve, s.parent)
	s.inner.Observe(fb)
	s.t.end(id)
}

// NeedsUpdates forwards the optional fl.UpdateConsumer capability, so the
// engine materializes update vectors exactly when the wrapped selector asks.
func (s *tracedSelector) NeedsUpdates() bool {
	uc, ok := s.inner.(fl.UpdateConsumer)
	return ok && uc.NeedsUpdates()
}

// tracedOptimizer decorates fl.Config.Optimizer.
type tracedOptimizer struct {
	inner  fl.ServerOptimizer
	t      *tracer
	job    string
	parent int
}

func (o *tracedOptimizer) Name() string { return o.inner.Name() }
func (o *tracedOptimizer) Reset()       { o.inner.Reset() }
func (o *tracedOptimizer) Apply(global, delta tensor.Vec) {
	id := o.t.begin(o.job, spanApply, o.parent)
	o.inner.Apply(global, delta)
	o.t.end(id)
}

// tracedTransport decorates a dist.Job used as fl.Config.Transport,
// forwarding the fl.RoundObserver broadcast.
type tracedTransport struct {
	inner  *dist.Job
	t      *tracer
	job    string
	parent int

	dispatched int // parties sent to train
}

func (x *tracedTransport) TrainWave(d fl.TrainDispatch, out []model.LocalResult) error {
	x.dispatched += len(d.IDs)
	id := x.t.begin(x.job, spanWave, x.parent)
	err := x.inner.TrainWave(d, out)
	x.t.end(id)
	return err
}

func (x *tracedTransport) ObserveRound(st fl.RoundStats) { x.inner.ObserveRound(st) }

// resolved is a submitted config lowered to the experiment layer, mirroring
// the unexported flips.SimulationConfig.resolve for the fields the workloads
// use. The traced job's history is compared bit-for-bit with the streamed
// one, so any drift from the real mapping fails the run instead of going
// unnoticed.
type resolved struct {
	setting experiment.Setting
	scale   experiment.Scale
}

func resolve(c flips.SimulationConfig) (resolved, error) {
	spec, ok := dataset.ByName(c.Dataset)
	if !ok {
		return resolved{}, fmt.Errorf("unknown dataset %q", c.Dataset)
	}
	sc := experiment.LaptopScale()
	if c.PaperScale {
		sc = experiment.PaperScale()
	}
	if c.Rounds > 0 {
		sc.Rounds = c.Rounds
	} else {
		sc.Rounds = experiment.RoundsFor(spec, sc)
	}
	if c.Parties > 0 {
		sc.Parties = c.Parties
	}
	if sc.TrainSize < 2*sc.Parties {
		sc.TrainSize = 2 * sc.Parties
	}
	sc.Parallelism = c.Parallelism
	orStr := func(v, def string) string {
		if v == "" {
			return def
		}
		return v
	}
	orF := func(v, def float64) float64 {
		if v == 0 {
			return def
		}
		return v
	}
	s := experiment.Setting{
		Spec:              spec,
		Algorithm:         orStr(c.Algorithm, experiment.AlgoFedYogi),
		Strategy:          orStr(c.Strategy, experiment.StrategyFLIPS),
		CandidateFactor:   c.CandidateFactor,
		Alpha:             orF(c.Alpha, 0.3),
		PartyFraction:     orF(c.PartyFraction, 0.2),
		StragglerRate:     c.StragglerRate,
		Deadline:          c.Deadline,
		Aggregation:       c.Aggregation,
		BufferSize:        c.BufferSize,
		StalenessHalfLife: c.StalenessHalfLife,
		Shards:            c.Shards,
		Fold:              c.Fold,
		TargetAccuracy:    experiment.TargetFor(spec),
		Seed:              c.Seed,
	}
	clip := c.Clip
	if c.Mask && clip == 0 {
		clip = 1
	}
	s.Privacy = fl.PrivacyConfig{Mask: c.Mask, Clip: clip, Epsilon: c.Epsilon, ShareThreshold: c.ShareThreshold}
	fault, err := chaos.FaultModelByName(c.FaultModel)
	if err != nil {
		return resolved{}, err
	}
	if fault != chaos.FaultNone {
		s.Chaos = &chaos.Spec{Seed: c.Seed, Fault: fault, FaultFraction: c.FaultFraction, FaultScale: c.FaultScale}
	}
	switch c.DeviceProfile {
	case "":
	case "uniform", "lognormal":
		dev := device.Uniform()
		if c.DeviceProfile == "lognormal" {
			dev = device.Lognormal()
		}
		kind, err := device.KindByName(c.Availability)
		if err != nil {
			return resolved{}, err
		}
		dev.Availability.Kind = kind
		s.Device = &dev
	default:
		return resolved{}, fmt.Errorf("unknown device profile %q", c.DeviceProfile)
	}
	return resolved{setting: s, scale: sc}, nil
}

// expectedEvents is how many round events a job streams: one per evaluated
// round, the final round always evaluated.
func expectedEvents(cfg flips.SimulationConfig) (int, error) {
	r, err := resolve(cfg)
	if err != nil {
		return 0, err
	}
	every := r.scale.EvalEvery
	if every < 1 {
		every = 1
	}
	return (r.scale.Rounds + every - 1) / every, nil
}

// labelClusters runs the FLIPS label-distribution clustering with the sweep
// bounds the selection registry uses (its fleet-scale caps above 2048
// parties), for jobs whose selector did not already cluster.
func labelClusters(parties []*fl.Party, r *rng.Source) ([][]int, error) {
	n := len(parties)
	maxK, repeats := n/4, 5
	if maxK < 3 {
		maxK = min(3, n)
	}
	if n > 2048 {
		maxK, repeats = min(maxK, 12), 2
	}
	return core.ClusterLabelDistributions(fl.NormalizedLabelDists(parties), maxK, repeats, r)
}

// tracedResult is what one traced job yields beyond its spans.
type tracedResult struct {
	digest     uint64
	built      *experiment.BuildResult // first repeat's build: the probes' shapes
	res        resolved
	selector   []*tracedSelector // one per repeat
	history    int               // evaluated rounds, all repeats
	dispatched int               // parties a transport sent to train
	rejected   int
	aborted    int
	shards     int
}

// runTraced re-runs one job in-process the way the server's runner does —
// flips.RunSimulationStream's extra build, then every repeat's build and
// fl.Run at the same repeat/training widths; DistRunner.Run's single build,
// NewJob and transported fl.Run when coord is set — with spans around each
// layer call and the fl.Config seams decorated.
func runTraced(t *tracer, jobID string, cfg flips.SimulationConfig, coord *dist.Coordinator) (*tracedResult, error) {
	res, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	out := &tracedResult{res: res}
	root := t.begin(jobID, spanJob, 0)
	defer t.end(root)

	build := func(s experiment.Setting, sc experiment.Scale) (*experiment.BuildResult, error) {
		id := t.begin(jobID, spanBuild, root)
		defer t.end(id)
		return experiment.Build(s, sc)
	}
	repeats := max(res.scale.Repeats, 1)
	if coord != nil {
		repeats = 1
	} else if _, err := build(res.setting, res.scale); err != nil {
		return nil, err
	}
	budget := parallel.New(res.scale.Parallelism).Width()
	repWidth := min(budget, repeats)
	inner := res.scale
	inner.Repeats = 1
	inner.Parallelism = max(budget/repWidth, 1)
	if coord != nil {
		inner.Parallelism = res.scale.Parallelism
	}

	type repOut struct {
		built  *experiment.BuildResult
		sel    *tracedSelector
		result *fl.Result
		err    error
	}
	outs := parallel.Map(parallel.New(repWidth), repeats, func(rep int) repOut {
		s := res.setting
		s.Seed += uint64(rep) * 0x9E37
		built, err := build(s, inner)
		if err != nil {
			return repOut{err: err}
		}
		clusters := built.Clusters
		if clusters == nil && rep == 0 {
			// Coverage bookkeeping for selectors that do not cluster
			// themselves, outside the engine span.
			id := t.begin(jobID, spanClusters, root)
			clusters, err = labelClusters(built.Parties, rng.New(s.Seed).Split(0xC1))
			t.end(id)
			if err != nil {
				return repOut{err: err}
			}
		}
		var job *dist.Job
		if coord != nil {
			spec, err := json.Marshal(cfg)
			if err != nil {
				return repOut{err: err}
			}
			id := t.begin(jobID, spanNewJob, root)
			job, err = dist.NewJob(coord, spec, inner.Parties, distWorkers)
			t.end(id)
			if err != nil {
				return repOut{err: err}
			}
			defer job.Close()
		}
		run := t.begin(jobID, spanRun, root)
		sel := &tracedSelector{inner: built.Config.Selector, t: t, job: jobID, parent: run}
		if clusters != nil {
			sel.clusters = len(clusters)
			sel.stamp = make([]int, len(clusters))
			sel.clusterOf = make([]int, len(built.Parties))
			for c, members := range clusters {
				for _, p := range members {
					sel.clusterOf[p] = c
				}
			}
		}
		built.Config.Selector = sel
		built.Config.Optimizer = &tracedOptimizer{inner: built.Config.Optimizer, t: t, job: jobID, parent: run}
		var transport *tracedTransport
		if job != nil {
			transport = &tracedTransport{inner: job, t: t, job: jobID, parent: run}
			built.Config.Transport = transport
		}
		built.Config.OnRound = func(fl.RoundStats) { t.mark(jobID, spanRoundEnd, run) }
		result, err := fl.Run(built.Config)
		t.end(run)
		if transport != nil {
			out.dispatched = transport.dispatched
		}
		return repOut{built: built, sel: sel, result: result, err: err}
	})

	var peak, sim, ttt float64
	var rtt, reached int
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		out.selector = append(out.selector, o.sel)
		out.history += len(o.result.History)
		for _, h := range o.result.History {
			out.rejected += h.Rejected
			out.shards += h.ShardsTouched
			if h.MaskAborted {
				out.aborted++
			}
		}
		peak += o.result.PeakAccuracy
		sim += o.result.SimTime
		if o.result.RoundsToTarget > 0 {
			rtt += o.result.RoundsToTarget
			ttt += o.result.TimeToTarget
			reached++
		}
	}
	out.built = outs[0].built

	// The same across-repeat reduction experiment.RunSettingStream applies,
	// so the digest is comparable with the streamed job's.
	first := outs[0].result
	hash := fnv.New64a()
	dig := historyDigest{h: hash}
	for _, h := range first.History {
		dig.round(h.Round, h.Invited, h.Completed, h.Accuracy, h.MeanLoss, h.SimTime)
	}
	roundsToTarget, timeToTarget := -1, -1.0
	if reached == repeats {
		roundsToTarget, timeToTarget = rtt/reached, ttt/float64(reached)
	}
	dig.result(peak/float64(repeats), roundsToTarget, timeToTarget, sim/float64(repeats))
	out.digest = hash.Sum64()
	return out, nil
}
