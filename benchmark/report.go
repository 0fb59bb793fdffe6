package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricKind sorts the registry into what BENCHMARK.json calls end_to_end
// (timed, bounded), the exact metrics (deterministic in the seed: the paper's
// axis and the failure share), and the per-layer metrics.
type metricKind int

const (
	kindEndToEnd metricKind = iota
	kindExact
	kindLayer
)

// metricDef declares one metric once: the report, BENCHMARK.json, the schema
// test and the -aa comparison all read this table.
type metricDef struct {
	name, unit, better string
	kind               metricKind
	// bound is the share of the median an end-to-end metric may worsen by
	// before it is a regression; abs is a floor under which -aa ignores a
	// difference. Exact metrics must be equal; layer metrics have no bound.
	bound, abs float64
}

var registry = []metricDef{
	// End to end: what a tenant of the job server sees, the timed ones at
	// the calibration kernel's nominal speed (calib.go). Bounds are what a
	// shared box can resolve, not what one would wish: calibrated, the
	// reference box spreads 2-9% over ten runs, the driver's more (README.md,
	// "Steadiness"), and a bound below the spread rejects every change.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, abs: 0.05},
	{name: "job_wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "first_round_s", unit: "s", better: "lower", bound: 0.25},
	{name: "rounds_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "job_cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "job_latency_p95_s", unit: "s", better: "lower", bound: 0.25},

	// Exact: deterministic in the seed, so they double as the oracle.
	{name: "failed_share", unit: "ratio", better: "lower", kind: kindExact},
	{name: "rounds_to_target", unit: "rounds", better: "lower", kind: kindExact},
	{name: "sim_time_to_target_s", unit: "sim_s", better: "lower", kind: kindExact},
	{name: "peak_accuracy", unit: "ratio", better: "higher", kind: kindExact},

	// server (client-side, every run).
	{name: "server.submit_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "server.queue_wait_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "server.run_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "server.stream_events", unit: "count", better: "lower", kind: kindLayer},
	{name: "server.stream_bytes", unit: "bytes", better: "lower", kind: kindLayer},
	{name: "server.stream_lag_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "server.rejected", unit: "count", better: "lower", kind: kindLayer},
	// experiment and what it builds from (probes).
	{name: "experiment.validate_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "experiment.build_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "dataset.generate_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "partition.dirichlet_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "core.label_clustering_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "core.clusters", unit: "count", better: "higher", kind: kindLayer},
	// selection (seam).
	{name: "selection.select_ms_total", unit: "ms", better: "lower", kind: kindLayer},
	{name: "selection.select_calls", unit: "count", better: "lower", kind: kindLayer},
	{name: "selection.select_p95_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "selection.observe_ms_total", unit: "ms", better: "lower", kind: kindLayer},
	{name: "selection.observe_calls", unit: "count", better: "lower", kind: kindLayer},
	{name: "selection.invited_total", unit: "count", better: "lower", kind: kindLayer},
	{name: "selection.cluster_coverage", unit: "ratio", better: "higher", kind: kindLayer},
	// fl engine (seam + span around fl.Run).
	{name: "fl.run_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "fl.engine_self_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "fl.optimizer_apply_ms_total", unit: "ms", better: "lower", kind: kindLayer},
	{name: "fl.rounds", unit: "count", better: "higher", kind: kindLayer},
	{name: "fl.updates_folded", unit: "count", better: "higher", kind: kindLayer},
	{name: "fl.updates_invited", unit: "count", better: "lower", kind: kindLayer},
	{name: "fl.useful_update_ratio", unit: "ratio", better: "higher", kind: kindLayer},
	{name: "fl.rejected_updates", unit: "count", better: "lower", kind: kindLayer},
	{name: "fl.mask_aborted_rounds", unit: "count", better: "lower", kind: kindLayer},
	{name: "fl.shards_touched_mean", unit: "count", better: "lower", kind: kindLayer},
	// fl folds (probes).
	{name: "fl.fold_mean_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "fl.fold_median_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "fl.fold_trimmed_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "fl.fold_krum_us", unit: "us", better: "lower", kind: kindLayer},
	// model / tensor (probes).
	{name: "model.train_local_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "model.train_local_allocs", unit: "count", better: "lower", kind: kindLayer},
	{name: "model.loss_gradient_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "model.train_calls", unit: "count", better: "lower", kind: kindLayer},
	{name: "model.est_train_share", unit: "ratio", better: "lower", kind: kindLayer},
	// metrics (probe).
	{name: "metrics.eval_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "metrics.evals", unit: "count", better: "lower", kind: kindLayer},
	// secagg (probes, masked_sync only).
	{name: "secagg.pair_seed_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "secagg.add_pair_mask_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "secagg.split_secret_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "secagg.combine_shares_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "secagg.est_pair_seeds_per_wave", unit: "count", better: "lower", kind: kindLayer},
	// dist (seam + exact wire counts, dist_fleet only).
	{name: "dist.new_job_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "dist.train_wave_ms_total", unit: "ms", better: "lower", kind: kindLayer},
	{name: "dist.train_wave_calls", unit: "count", better: "lower", kind: kindLayer},
	{name: "dist.train_wave_p50_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "dist.train_wave_p95_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "dist.waves_total", unit: "count", better: "lower", kind: kindLayer},
	{name: "dist.wire_bytes_out", unit: "bytes", better: "lower", kind: kindLayer},
	{name: "dist.wire_bytes_in", unit: "bytes", better: "lower", kind: kindLayer},
	{name: "dist.wire_bytes_per_round", unit: "bytes", better: "lower", kind: kindLayer},
	// wire (probes, dist_fleet only).
	{name: "wire.roundtrip_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "wire.checkpoint_mb_per_s", unit: "MB/s", better: "higher", kind: kindLayer},
	// process.
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower", kind: kindLayer},
	{name: "proc.cpu_user_s", unit: "s", better: "lower", kind: kindLayer},
	{name: "proc.cpu_sys_s", unit: "s", better: "lower", kind: kindLayer},
	{name: "proc.gc_cycles", unit: "count", better: "lower", kind: kindLayer},
	{name: "proc.gc_pause_ms_total", unit: "ms", better: "lower", kind: kindLayer},
	{name: "trace.overhead_pct", unit: "%", better: "lower", kind: kindLayer},
	// calibration (every run): the host's speed during the measured passes.
	{name: "calib.factor", unit: "ratio", better: "lower", kind: kindLayer},
	{name: "calib.samples", unit: "count", better: "higher", kind: kindLayer},
	{name: "calib.job_wall_raw_s", unit: "s", better: "lower", kind: kindLayer},
}

// stat is one reported metric: Value is the headline (the median of the
// samples unless the metric is defined otherwise, e.g. a p95), with the
// sample range and count beside it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"samples"`
}

// tailLatency is the p95 of xs (which it sorts) when that leaves at least ten
// samples beyond it, else the highest percentile that does, else — under 21
// samples, as on the single-job workloads — the median: a tail read off
// fewer than ten samples is the run's slowest job, not a percentile.
func tailLatency(xs []float64) float64 {
	n := len(xs)
	idx := n - 1 - max(10, n/20)
	if idx < n/2 {
		return median(xs)
	}
	sort.Float64s(xs)
	return xs[idx]
}

// median is the middle sample, the mean of the middle two when even.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// metricSet collects a workload's metrics by registry name.
type metricSet map[string]stat

// unitOf looks a metric's unit up in the registry; recording a metric the
// registry does not declare is a bug in this program.
func unitOf(name string) string {
	for _, d := range registry {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: metric " + name + " is not in the registry")
}

// scalar records a single measured value.
func (m metricSet) scalar(name string, v float64) {
	m[name] = stat{Value: v, Unit: unitOf(name), Min: v, Max: v, N: 1}
}

// samples records the median of xs with its range.
func (m metricSet) samples(name string, xs []float64) {
	m.headline(name, median(xs), xs)
}

// headline records v as the value over the sample range of xs.
func (m metricSet) headline(name string, v float64, xs []float64) {
	s := stat{Value: v, Unit: unitOf(name), N: len(xs)}
	if len(xs) > 0 {
		sort.Float64s(xs)
		s.Min, s.Max = xs[0], xs[len(xs)-1]
	}
	m[name] = s
}

// printTable writes the metrics in registry order.
func (m metricSet) printTable(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "  %-34s %14s %-7s %14s %14s %8s\n", "metric", "value", "unit", "min", "max", "samples")
	for _, d := range registry {
		s, ok := m[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-7s %14.6g %14.6g %8d\n", d.name, s.Value, s.Unit, s.Min, s.Max, s.N)
	}
}

// printSummary writes the end-to-end and exact metrics of every workload
// side by side; the children have already printed their full tables.
func printSummary(w io.Writer, reports []workloadReport) {
	fmt.Fprintf(w, "\nsummary (medians; seed %d)\n  %-22s %-6s", reports[0].Seed, "metric", "unit")
	for _, r := range reports {
		fmt.Fprintf(w, " %13s", r.Workload)
	}
	fmt.Fprintln(w)
	for _, d := range registry {
		if d.kind == kindLayer {
			continue
		}
		fmt.Fprintf(w, "  %-22s %-6s", d.name, d.unit)
		for _, r := range reports {
			fmt.Fprintf(w, " %13.6g", r.Metrics[d.name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-22s %-6s", "passes / jobs / failed", "")
	for _, r := range reports {
		fmt.Fprintf(w, " %13s", fmt.Sprintf("%d/%d/%d", r.Passes, r.Attempted, r.Failed))
	}
	fmt.Fprintln(w)
}

// worse reports how much worse b is than a as a share of a, in the metric's
// own direction (negative when b is better).
func (d metricDef) worse(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if d.better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// compareAA prints the table of A/B pairs for every end-to-end and exact
// metric of every workload and returns the ones that disagree: an exact
// metric that differs at all, or a timed one whose medians differ by more
// than its own bound (and its absolute floor) in either direction.
func compareAA(w io.Writer, a, b []workloadReport) []string {
	var bad []string
	fmt.Fprintf(w, "\nA/A: same commit, same seed, two sets of runs\n")
	fmt.Fprintf(w, "  %-14s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "diff", "bound", "")
	for i := range a {
		for _, d := range registry {
			if d.kind == kindLayer {
				continue
			}
			sa, okA := a[i].Metrics[d.name]
			sb, okB := b[i].Metrics[d.name]
			if !okA || !okB {
				continue
			}
			diff := math.Max(d.worse(sa.Value, sb.Value), d.worse(sb.Value, sa.Value))
			verdict := "ok"
			switch {
			case d.kind == kindExact && sa.Value != sb.Value:
				verdict = "DIFFERS (exact)"
			case d.kind == kindEndToEnd && diff > d.bound && math.Abs(sa.Value-sb.Value) > d.abs:
				verdict = "DIFFERS"
			}
			if verdict != "ok" {
				bad = append(bad, fmt.Sprintf("%s/%s: A=%g B=%g", a[i].Workload, d.name, sa.Value, sb.Value))
			}
			fmt.Fprintf(w, "  %-14s %-22s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n",
				a[i].Workload, d.name, sa.Value, sb.Value, 100*diff, 100*d.bound, verdict)
		}
	}
	return bad
}
