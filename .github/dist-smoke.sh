#!/usr/bin/env bash
# Distributed-aggregation smoke for the flipsd shard-worker seam: boot the
# job server with its worker coordinator, attach two separate flipsd worker
# processes, run a 10k-party job whose local training crosses the process
# boundary, and check the full lifecycle:
#
#   1. The job (.github/dist-smoke-job.json, submitted and followed by
#      flipsload) completes with training distributed across both workers.
#   2. /metrics exposes the registration gauge and the per-worker slot
#      series (connectivity, waves, lag, byte counters), and no slot of the
#      finished job reports a wave outstanding.
#   3. SIGTERM drains without losing a job, and the coordinator's shutdown
#      frames release both workers with exit code 0.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18084
DIST=127.0.0.1:18094
BIN=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

go build -o "$BIN/flipsd" ./cmd/flipsd
go build -o "$BIN/flipsload" ./cmd/flipsload

wait_up() {
  for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "flipsd never came up" >&2
  return 1
}

"$BIN/flipsd" -listen "$ADDR" -dist-listen "$DIST" -dist-workers 2 -queue 8 -workers 1 &
FLIPSD=$!
wait_up

"$BIN/flipsd" -worker -connect "$DIST" -parallel 2 &
W1=$!
"$BIN/flipsd" -worker -connect "$DIST" -parallel 2 &
W2=$!

echo "== run a 10k-party job across the worker fleet =="
# flipsload submits the job file, follows the job to its terminal event and
# exits non-zero unless it finished "done".
"$BIN/flipsload" -addr "http://$ADDR" -jobs 1 -concurrency 1 .github/dist-smoke-job.json

echo "== per-worker series on /metrics =="
curl -fsS "http://$ADDR/metrics" | tee "$BIN/metrics.txt" >/dev/null
grep -q '^flipsd_dist_workers_registered 2$' "$BIN/metrics.txt"
grep -q 'flipsd_dist_worker_connected{' "$BIN/metrics.txt"
grep -q 'flipsd_dist_worker_waves_total{' "$BIN/metrics.txt"
grep -q 'flipsd_dist_worker_lag_waves{' "$BIN/metrics.txt"
if grep '^flipsd_dist_worker_lag_waves{' "$BIN/metrics.txt" | grep -qv ' 0$'; then
  echo "a slot of a finished job still lags:" >&2
  grep '^flipsd_dist_worker_lag_waves{' "$BIN/metrics.txt" >&2
  exit 1
fi
grep -q 'flipsd_dist_worker_bytes_in_total{' "$BIN/metrics.txt"
grep -q 'flipsd_dist_worker_bytes_out_total{' "$BIN/metrics.txt"

echo "== drain: no lost jobs, workers released cleanly =="
kill -TERM "$FLIPSD"
wait "$FLIPSD" # non-zero if the drain summary lost a job
wait "$W1"     # non-zero unless the shutdown frame released the worker
wait "$W2"
echo "dist smoke ok"
