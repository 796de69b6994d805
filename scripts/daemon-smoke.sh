#!/usr/bin/env bash
# Process-level blameitd smoke: boot on ephemeral ports, flood with a
# 10x surge through the reference feeder, scrape the live endpoints,
# kill -9, fsck the multi-segment WAL the kill left, resume across it,
# TERM, then reopen the drained state.
#
#   scripts/daemon-smoke.sh <state-dir>
#
# Needs target/release/{blameitd,blameit}. Leaves daemon.{out,err},
# resume.{out,err}, reopen.{out,err}, fsck-{killed,drained}.txt,
# metrics.prom, resume-metrics.prom and alerts.txt in <state-dir> for
# the caller to archive or delete. The one copy: CI and verify.sh call
# it.
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
grep -Eq 'blameit_shed_quartets_total\{reason="low_impact"\} [1-9]' "$DSTATE/metrics.prom"

# A hard kill with the day fed and its last window still queued. Every
# fourth of the 95 ticks snapshotted and sealed a WAL segment (23 so
# far); all but the last two are retired by now.
kill -9 "$DPID"; wait "$DPID" 2>/dev/null || true; DPID=
ls "$DSTATE"/ingest.wal.* >/dev/null
target/release/blameit fsck "$DSTATE" >"$DSTATE/fsck-killed.txt"
grep -Eq ' in 3 segment\(s\), 0 error\(s\): CLEAN' "$DSTATE/fsck-killed.txt"

# A restart with --resume reads the sealed segments and the active
# one: it queues the batches from the loaded snapshot's first
# unconsumed bucket on and only checks the older ones that snapshot
# covers. Then TERM drains the queued window and retires every segment.
boot resume --resume 1
grep -q 'recovered from snapshot' "$DSTATE/resume.err"
target/release/blameit scrape --addr "$HTTP" --path /metrics >"$DSTATE/resume-metrics.prom"
grep -Eq '^blameit_wal_replayed_batches\{state="queued"\} [1-9]' "$DSTATE/resume-metrics.prom"
grep -Eq '^blameit_wal_replayed_batches\{state="covered"\} [1-9]' "$DSTATE/resume-metrics.prom"
target/release/blameit feed --addr "$INGEST" "${WORLD_ARGS[@]}" --term-only 1
wait "$DPID"; DPID=
grep -q 'clean_shutdown=true' "$DSTATE/resume.out"
grep -Eq 'exit: ticks=[1-9]' "$DSTATE/resume.out"
target/release/blameit fsck "$DSTATE" >"$DSTATE/fsck-drained.txt"
grep -Eq ' 0 wal batch\(es\) in 1 segment\(s\), 0 error\(s\): CLEAN' "$DSTATE/fsck-drained.txt"

# The drained state reopens with nothing to replay and TERMs clean.
boot reopen --resume 1
target/release/blameit feed --addr "$INGEST" "${WORLD_ARGS[@]}" --term-only 1
wait "$DPID"; DPID=
grep -q 'clean_shutdown=true' "$DSTATE/reopen.out"
grep -Eq 'exit: ticks=0 ' "$DSTATE/reopen.out"
