#!/usr/bin/env bash
# Process-level blameitd smoke: boot on ephemeral ports, flood with a
# 10x surge through the reference feeder, scrape the live endpoints,
# TERM, then resume from the state the surge left behind.
#
#   scripts/daemon-smoke.sh <state-dir>
#
# Needs target/release/{blameitd,blameit}. Leaves daemon.{out,err},
# resume.{out,err}, metrics.prom and alerts.txt in <state-dir> for the
# caller to archive or delete. The one copy: CI and verify.sh call it.
set -euo pipefail
cd "$(dirname "$0")/.."
DSTATE=${1:?usage: daemon-smoke.sh <state-dir>}
mkdir -p "$DSTATE"
WORLD_ARGS=(--scale tiny --seed 2019 --days 2)
DPID=
trap '[ -z "$DPID" ] || kill "$DPID" 2>/dev/null || true' EXIT

# Starts blameitd in the background with output to $DSTATE/$1.{out,err},
# waits for it to print its addresses; sets DPID, INGEST and HTTP.
boot() {
  local log=$1; shift
  target/release/blameitd --state-dir "$DSTATE" "${WORLD_ARGS[@]}" \
    --ingest-addr 127.0.0.1:0 --http-addr 127.0.0.1:0 "$@" \
    >"$DSTATE/$log.out" 2>"$DSTATE/$log.err" &
  DPID=$!
  for _ in $(seq 1 100); do
    grep -q '^http=' "$DSTATE/$log.out" 2>/dev/null && break
    sleep 0.1
  done
  INGEST=$(sed -n 's/^ingest=//p' "$DSTATE/$log.out")
  HTTP=$(sed -n 's/^http=//p' "$DSTATE/$log.out")
}

boot daemon --queue-cap 160000 --shed-watermark 90000 --per-loc-shed-cap 30000
target/release/blameit feed --addr "$INGEST" "${WORLD_ARGS[@]}" \
  --surge-mult 10 --surge-start-hour 26 --surge-hours 1 \
  --max-attempts 3 --max-backoff-ms 50 --no-term 1
target/release/blameit scrape --addr "$HTTP" --path /metrics >"$DSTATE/metrics.prom"
grep -q blameit_ingest_queue_depth_records "$DSTATE/metrics.prom"
grep -q blameit_shed_quartets_total "$DSTATE/metrics.prom"
target/release/blameit scrape --addr "$HTTP" --path /healthz | grep -q ok
target/release/blameit scrape --addr "$HTTP" --path /alerts >"$DSTATE/alerts.txt"
target/release/blameit feed --addr "$INGEST" "${WORLD_ARGS[@]}" --term-only 1
wait "$DPID"; DPID=
grep -q 'clean_shutdown=true' "$DSTATE/daemon.out"
grep -Eq 'shed_low_impact=[1-9]' "$DSTATE/daemon.out"

# A restart with --resume recovers the surged run's state and TERMs clean.
boot resume --resume 1
target/release/blameit feed --addr "$INGEST" "${WORLD_ARGS[@]}" --term-only 1
wait "$DPID"; DPID=
grep -q 'clean_shutdown=true' "$DSTATE/resume.out"
grep -q 'recovered from snapshot' "$DSTATE/resume.err"
