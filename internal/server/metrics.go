package server

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"flips/internal/dist"
)

// arrivalRateWindow is the sliding window of the arrivals/sec gauge.
const arrivalRateWindow = 60 * time.Second

// handleMetrics renders the service counters in the Prometheus text
// exposition format (text/plain; version 0.0.4). Everything is computed
// from the server's own state — no client library, no background samplers —
// so a scrape costs one mutex hold plus one sort of the latency window.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	now := s.cfg.Now()
	uptime := now.Sub(s.started).Seconds()
	up := 1
	if s.draining {
		up = 0
	}
	depth := s.queue.Depth()
	inFlight := s.inFlight
	accepted, rejected := s.accepted, s.rejected
	done, failed := s.doneCount, s.failedCount
	roundsTotal := s.roundsTotal
	arrivalRate := s.arrivalRateLocked(now)
	p50 := s.latency.Quantile(0.50)
	p90 := s.latency.Quantile(0.90)
	p99 := s.latency.Quantile(0.99)
	latCount := s.latStream.Count()
	latSum := s.latStream.Mean() * float64(latCount)
	shardMean := s.shardStream.Mean()
	s.mu.Unlock()

	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, promFloat(v))
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, promFloat(v))
	}
	gauge("flipsd_up", "1 while accepting jobs, 0 once draining.", float64(up))
	gauge("flipsd_uptime_seconds", "Seconds since the job server started.", uptime)
	gauge("flipsd_queue_depth", "Jobs queued but not yet running.", float64(depth))
	gauge("flipsd_queue_capacity", "Bound of the job queue.", float64(s.cfg.QueueDepth))
	gauge("flipsd_jobs_inflight", "Jobs currently running.", float64(inFlight))
	counter("flipsd_jobs_accepted_total", "Jobs accepted into the queue.", float64(accepted))
	counter("flipsd_jobs_rejected_total", "Jobs rejected with 429 (queue full).", float64(rejected))
	counter("flipsd_jobs_done_total", "Jobs finished successfully.", float64(done))
	counter("flipsd_jobs_failed_total", "Jobs finished with an error.", float64(failed))
	counter("flipsd_rounds_total", "Evaluated simulation rounds streamed across all jobs.", float64(roundsTotal))
	gauge("flipsd_job_arrivals_per_sec", "Job arrival rate over the last 60s.", arrivalRate)
	gauge("flipsd_round_shards_touched_mean", "Mean aggregation shards touched per evaluated round (shard locality).", shardMean)

	if s.cfg.DistStats != nil {
		registered, jobs := s.cfg.DistStats()
		writeDistMetrics(&b, registered, jobs)
	}

	const lat = "flipsd_job_latency_seconds"
	fmt.Fprintf(&b, "# HELP %s Submission-to-completion job latency (queue wait included).\n# TYPE %s summary\n", lat, lat)
	fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %s\n", lat, promFloat(p50))
	fmt.Fprintf(&b, "%s{quantile=\"0.9\"} %s\n", lat, promFloat(p90))
	fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %s\n", lat, promFloat(p99))
	fmt.Fprintf(&b, "%s_sum %s\n", lat, promFloat(latSum))
	fmt.Fprintf(&b, "%s_count %d\n", lat, latCount)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// writeDistMetrics renders the distributed shard-worker fleet: one
// registration gauge plus per-slot labeled series keyed by (job, slot) in
// that order, with the holding worker's ID as a third label so reattachments
// are visible in the series stream.
func writeDistMetrics(b *strings.Builder, registered int, jobs map[uint64][]dist.WorkerStat) {
	fmt.Fprintf(b, "# HELP flipsd_dist_workers_registered Shard worker processes currently registered with the coordinator.\n# TYPE flipsd_dist_workers_registered gauge\n")
	fmt.Fprintf(b, "flipsd_dist_workers_registered %d\n", registered)
	if len(jobs) == 0 {
		return
	}
	ids := make([]uint64, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	series := func(name, help, typ string, value func(dist.WorkerStat) any) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, id := range ids {
			for _, st := range jobs[id] {
				fmt.Fprintf(b, "%s{job=\"%d\",slot=\"%d\",worker=\"%d\"} %d\n", name, id, st.Slot, st.WorkerID, value(st))
			}
		}
	}
	series("flipsd_dist_worker_connected", "1 while a live worker holds the shard slot, 0 mid-recovery.", "gauge", func(st dist.WorkerStat) any {
		if st.Connected {
			return 1
		}
		return 0
	})
	series("flipsd_dist_worker_parties", "Parties in the slot's contiguous shard range.", "gauge", func(st dist.WorkerStat) any {
		return st.PartyHi - st.PartyLo
	})
	series("flipsd_dist_worker_lag_waves", "Waves dispatched to the slot and not yet completed (nonzero while a wave is in flight or being replayed).", "gauge", func(st dist.WorkerStat) any {
		return st.LagWaves
	})
	series("flipsd_dist_worker_waves_total", "Training waves the slot has completed.", "counter", func(st dist.WorkerStat) any {
		return st.Waves
	})
	series("flipsd_dist_worker_bytes_in_total", "Wire bytes the job received from the slot's workers, replacements included.", "counter", func(st dist.WorkerStat) any {
		return st.JobBytesIn
	})
	series("flipsd_dist_worker_bytes_out_total", "Wire bytes the job sent to the slot's workers, replacements included.", "counter", func(st dist.WorkerStat) any {
		return st.JobBytesOut
	})
}

// arrivalRateLocked counts arrivals inside the sliding window. The ring
// holds the most recent arrivals, so a full ring whose oldest entry is still
// inside the window underestimates only when more than the ring capacity
// arrived within it — at which point the floor it reports is already high.
func (s *Server) arrivalRateLocked(now time.Time) float64 {
	cutoff := now.Add(-arrivalRateWindow)
	n := 0
	for _, t := range s.arrivals {
		if t.After(cutoff) {
			n++
		}
	}
	window := arrivalRateWindow.Seconds()
	if uptime := now.Sub(s.started).Seconds(); uptime > 0 && uptime < window {
		window = uptime
	}
	if window <= 0 {
		return 0
	}
	return float64(n) / window
}

// promFloat renders a float in the exposition format (NaN for empty
// quantiles is legal and conventional).
func promFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}
