package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"flips/internal/dist"
	"flips/internal/fl"
	"flips/internal/parallel"
)

// distCounts reports the exact wire counts of the distributed runner's
// finished jobs (it retains the last few): waves dispatched and frame bytes
// in each direction, per job. A slot's byte counters are its worker
// connection's running totals and connections outlive jobs, so a job's bytes
// are the difference between its snapshot and the previous job's.
func distCounts(ms metricSet, jobs map[uint64][]dist.WorkerStat, rounds int) {
	ids := make([]uint64, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var waves, out, in, perRound []float64
	var prevOut, prevIn int64
	for n, id := range ids {
		var w uint64
		var o, i int64
		for _, s := range jobs[id] {
			w = max(w, s.Waves)
			o += s.BytesOut
			i += s.BytesIn
		}
		jobOut, jobIn := o-prevOut, i-prevIn
		prevOut, prevIn = o, i
		if n == 0 && id != 1 {
			continue // its predecessor was evicted: no baseline to subtract
		}
		waves = append(waves, float64(w))
		out = append(out, float64(jobOut))
		in = append(in, float64(jobIn))
		perRound = append(perRound, float64(jobOut+jobIn)/float64(rounds))
	}
	ms.samples("dist.waves_total", waves)
	ms.samples("dist.wire_bytes_out", out)
	ms.samples("dist.wire_bytes_in", in)
	ms.samples("dist.wire_bytes_per_round", perRound)
}

// traceWorkload is the -trace 1 half of a run: the workload's job (the first
// few, for server_mixed) re-run in-process with spans and decorated seams,
// then the layer probes at that job's shapes. It fills every per-layer metric
// (0 where a layer does not apply to the workload), writes the span file and
// prints where fl.Run's time went.
func traceWorkload(rep *workloadReport, w workload, b *bench, pass0 passSample, validateMs []float64, probeBudget time.Duration, log io.Writer) error {
	ms := rep.Metrics
	for _, d := range registry {
		if _, measured := ms[d.name]; d.kind == kindLayer && !measured {
			ms.scalar(d.name, 0)
		}
	}

	t := newTracer()
	n := 1
	if w.mixed {
		n = min(tracedMixed, len(w.jobs))
	}
	traced := make([]*tracedResult, n)
	for i := range traced {
		cfg := w.jobs[i]
		if cfg.Parallelism == 0 {
			cfg.Parallelism = 1 // the server's per-job default (Config.JobParallelism)
		}
		tr, err := runTraced(t, fmt.Sprintf("%s-%d", w.name, i), cfg, b.coord)
		if err != nil {
			return fmt.Errorf("traced job %d: %w", i, err)
		}
		// The trace must describe the job that was measured.
		if pass0.jobs[i].fail == "" && tr.digest != pass0.jobs[i].digest {
			rep.fail("traced job %d: round history or result differs from the untraced stream", i)
		}
		traced[i] = tr
	}
	if err := t.writeNDJSON(rep.SpanFile); err != nil {
		return err
	}
	stats, childNs := t.byName()

	var invited, folded, selCalls, history, rejected, aborted, shards, rounds, dispatched int
	var coverage float64
	for _, tr := range traced {
		for _, s := range tr.selector {
			invited += s.invited
			folded += s.folded
			if s.clusters > 0 {
				selCalls += s.calls
				coverage += s.coverageSum
			}
		}
		history += tr.history
		rejected += tr.rejected
		aborted += tr.aborted
		shards += tr.shards
		rounds += tr.built.Config.Rounds * len(tr.selector)
		dispatched += tr.dispatched
	}
	sel, obs, apply, wave, run := stats[spanSelect], stats[spanObserve], stats[spanApply], stats[spanWave], stats[spanRun]
	ms.scalar("selection.select_ms_total", sel.ms())
	ms.scalar("selection.select_calls", float64(sel.calls))
	ms.scalar("selection.select_p95_us", sel.quantileUs(0.95))
	ms.scalar("selection.observe_ms_total", obs.ms())
	ms.scalar("selection.observe_calls", float64(obs.calls))
	ms.scalar("selection.invited_total", float64(invited))
	if selCalls > 0 {
		ms.scalar("selection.cluster_coverage", coverage/float64(selCalls))
	}
	selfMs := float64(run.totalNs-childNs[spanRun]) / 1e6
	ms.scalar("fl.run_ms", run.ms())
	ms.scalar("fl.engine_self_ms", selfMs)
	ms.scalar("fl.optimizer_apply_ms_total", apply.ms())
	ms.scalar("fl.rounds", float64(rounds))
	ms.scalar("fl.updates_folded", float64(folded))
	ms.scalar("fl.updates_invited", float64(invited))
	if invited > 0 {
		ms.scalar("fl.useful_update_ratio", float64(folded)/float64(invited))
	}
	ms.scalar("fl.rejected_updates", float64(rejected))
	ms.scalar("fl.mask_aborted_rounds", float64(aborted))
	if history > 0 {
		ms.scalar("fl.shards_touched_mean", float64(shards)/float64(history))
	}
	ms.scalar("metrics.evals", float64(history))
	ms.samples("experiment.validate_ms", validateMs)
	ms.scalar("experiment.build_ms", stats[spanBuild].ms()/float64(stats[spanBuild].calls))
	if w.dist {
		ms.scalar("dist.new_job_ms", stats[spanNewJob].ms())
		ms.scalar("dist.train_wave_ms_total", wave.ms())
		ms.scalar("dist.train_wave_calls", float64(wave.calls))
		ms.scalar("dist.train_wave_p50_us", wave.quantileUs(0.50))
		ms.scalar("dist.train_wave_p95_us", wave.quantileUs(0.95))
	}

	// Tracing overhead: the traced job against the same job's untraced run
	// on the server, both alone on the machine. server_mixed's jobs share
	// the cores with another tenant's, so the pair would not compare.
	if !w.mixed {
		tracedMs := stats[spanJob].ms() - stats[spanClusters].ms()
		if untraced := ms["server.run_ms"].Value; untraced > 0 {
			ms.scalar("trace.overhead_pct", 100*(tracedMs-untraced)/untraced)
		}
	}

	// Probes at the shapes of the workload's representative job.
	ri := w.representative(n)
	rep0, cfg := traced[ri], w.jobs[ri]
	probes, err := probeLayers(probeBudget, cfg, rep0.res, rep0.built, w.dist)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	for name, v := range probes {
		ms.scalar(name, v)
	}

	// Apportion the engine's self time: calls x time-per-call. Each engine
	// run trains its waves Parallelism-wide (fl.run_ms sums the runs); under
	// dist training happens on the workers, inside the transport span.
	trainCalls := folded
	if w.dist {
		trainCalls = dispatched
	}
	trainWidth := float64(parallel.New(rep0.built.Config.Parallelism).Width())
	trainMs := float64(trainCalls) * probes["model.train_local_us"] / 1e3 / trainWidth
	evalMs := float64(history) * probes["metrics.eval_ms"]
	foldName := "fl.fold_mean_us"
	switch rep0.built.Config.Fold.Kind {
	case fl.FoldMedian:
		foldName = "fl.fold_median_us"
	case fl.FoldTrimmedMean:
		foldName = "fl.fold_trimmed_us"
	case fl.FoldKrum:
		foldName = "fl.fold_krum_us"
	}
	foldMs := float64(rounds) * probes[foldName] / 1e3
	var maskMs float64
	if cfg.Mask && rounds > 0 {
		// Per wave of k invited, s surviving, d = k-s dropped members: each
		// survivor expands a pair mask against every other member and each
		// dropout's residual is expanded once per survivor; every member
		// splits one secret; every dropout costs one share combination and
		// one fresh X25519 agreement per survivor. First-use pair seeds are
		// agreed once per distinct pair of the fleet and cached.
		k, sv := float64(invited)/float64(rounds), float64(folded)/float64(rounds)
		d := k - sv
		fleet := len(rep0.built.Parties)
		pairs := math.Min(float64(rounds)*k*(k-1)/2, float64(fleet*(fleet-1)/2))
		perWave := (sv*(k-1)+d*sv)*probes["secagg.add_pair_mask_us"] + k*probes["secagg.split_secret_us"] +
			d*(probes["secagg.combine_shares_us"]+sv*probes["secagg.pair_seed_us"])
		maskMs = (float64(rounds)*perWave + pairs*probes["secagg.pair_seed_us"]) / 1e3
		foldMs = 0 // the masked ring fold replaces the plaintext fold
	}
	ms.scalar("model.train_calls", float64(trainCalls))
	if run.totalNs > 0 {
		ms.scalar("model.est_train_share", trainMs/run.ms())
	}

	fmt.Fprintf(log, "\n  where fl.Run's %.0f ms went (%d traced job(s), %d engine run(s)):\n", run.ms(), n, run.calls)
	share := func(name string, v float64) {
		fmt.Fprintf(log, "    %-38s %10.1f ms %6.1f%%\n", name, v, 100*v/run.ms())
	}
	share("Selector.Select (span)", sel.ms())
	share("Selector.Observe (span)", obs.ms())
	share("ServerOptimizer.Apply (span)", apply.ms())
	share("Transport.TrainWave (span)", wave.ms())
	share("engine self (run - spans)", selfMs)
	explained := evalMs + foldMs + maskMs
	if !w.dist {
		explained += trainMs
		share("  est. local training (calls x probe)", trainMs)
	}
	share("  est. evaluation (evals x probe)", evalMs)
	share("  est. fold (rounds x probe)", foldMs)
	share("  est. masking (secagg probes)", maskMs)
	share("  unexplained remainder of self", selfMs-explained)
	return nil
}

// representative picks, among the first n jobs, the one the probes take
// their shapes from: the only job of a single-job workload, the first job of
// server_mixed's most common kind.
func (w workload) representative(n int) int {
	for i := 0; i < n; i++ {
		if w.jobs[i].StragglerRate > 0 {
			return i
		}
	}
	return 0
}
