#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo run --release -p blameit-lint -- --self-check"
cargo run --release -p blameit-lint -- --self-check

echo "==> cargo run --release -p blameit-lint -- --effect-map target/effect-map.json"
cargo run --release -p blameit-lint -- --effect-map target/effect-map.json

echo "==> cargo run --release -p blameit-lint -- --only stale-suppression"
cargo run --release -p blameit-lint -- --only stale-suppression

echo "==> blameit-lint exit-code contract (0 clean / 1 findings / 2 usage)"
LINT=target/release/blameit-lint
BAD_TREE=crates/lint/tests/fixtures/transitive-effect/bad
rc=0; "$LINT" --root "$BAD_TREE" --no-cache >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "expected exit 1 on the bad fixture tree, got $rc"; exit 1; }
rc=0; "$LINT" --root "$BAD_TREE" --no-cache --only as-cast-truncation >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 0 ] || { echo "expected exit 0 with --only filtering the finding out, got $rc"; exit 1; }
rc=0; "$LINT" --definitely-not-a-flag >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 on an unknown flag, got $rc"; exit 1; }

echo "==> cargo run --release -q -p blameit-bench --bin lint (BENCH_lint.json)"
cargo run --release -q -p blameit-bench --bin lint

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --offline --manifest-path benchmark/Cargo.toml (frozen harness vs current API)"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> BLAMEIT_THREADS=8 cargo test --workspace -q"
BLAMEIT_THREADS=8 cargo test --workspace -q

echo "==> cargo test --release -q --test parallel_determinism --test golden_output"
cargo test --release -q --test parallel_determinism --test golden_output

echo "==> BLAMEIT_THREADS=8 cargo test --release -q --test chaos_determinism"
BLAMEIT_THREADS=8 cargo test --release -q --test chaos_determinism

echo "==> BLAMEIT_THREADS=8 cargo test --release -q --test crash_recovery"
BLAMEIT_THREADS=8 cargo test --release -q --test crash_recovery

echo "==> BLAMEIT_THREADS=8 cargo test --release -q --test daemon_overload --test daemon_crash --test daemon_smoke"
BLAMEIT_THREADS=8 cargo test --release -q --test daemon_overload --test daemon_crash --test daemon_smoke

echo "==> blameitd smoke: 10x surge feed, live scrapes, clean TERM, resume"
DSTATE=$(mktemp -d)
WORLD_ARGS=(--scale tiny --seed 2019 --days 2)
target/release/blameitd --state-dir "$DSTATE" "${WORLD_ARGS[@]}" \
  --ingest-addr 127.0.0.1:0 --http-addr 127.0.0.1:0 \
  --queue-cap 160000 --shed-watermark 90000 --per-loc-shed-cap 30000 \
  >"$DSTATE/daemon.out" 2>"$DSTATE/daemon.err" &
DPID=$!
for _ in $(seq 1 100); do
  grep -q '^http=' "$DSTATE/daemon.out" 2>/dev/null && break
  sleep 0.1
done
INGEST=$(sed -n 's/^ingest=//p' "$DSTATE/daemon.out")
HTTP=$(sed -n 's/^http=//p' "$DSTATE/daemon.out")
target/release/blameit feed --addr "$INGEST" "${WORLD_ARGS[@]}" \
  --surge-mult 10 --surge-start-hour 26 --surge-hours 1 \
  --max-attempts 3 --max-backoff-ms 50 --no-term 1
target/release/blameit scrape --addr "$HTTP" --path /healthz | grep -q ok
target/release/blameit scrape --addr "$HTTP" --path /metrics \
  | grep -q blameit_ingest_queue_depth_records
target/release/blameit scrape --addr "$HTTP" --path /alerts >/dev/null
target/release/blameit feed --addr "$INGEST" "${WORLD_ARGS[@]}" --term-only 1
wait "$DPID"
grep -q 'clean_shutdown=true' "$DSTATE/daemon.out"
grep -Eq 'shed_low_impact=[1-9]' "$DSTATE/daemon.out"
# A restart with --resume recovers the surged run's state and TERMs clean.
target/release/blameitd --state-dir "$DSTATE" "${WORLD_ARGS[@]}" --resume 1 \
  --ingest-addr 127.0.0.1:0 --http-addr 127.0.0.1:0 \
  >"$DSTATE/resume.out" 2>"$DSTATE/resume.err" &
DPID=$!
for _ in $(seq 1 100); do
  grep -q '^http=' "$DSTATE/resume.out" 2>/dev/null && break
  sleep 0.1
done
INGEST=$(sed -n 's/^ingest=//p' "$DSTATE/resume.out")
target/release/blameit feed --addr "$INGEST" "${WORLD_ARGS[@]}" --term-only 1
wait "$DPID"
grep -q 'clean_shutdown=true' "$DSTATE/resume.out"
grep -q 'recovered from snapshot' "$DSTATE/resume.err"
rm -rf "$DSTATE"

echo "==> blameit scenario check --all (1 and 4 threads)"
cargo run --release -q -p blameit-cli -- scenario check --all 1 --threads 1
cargo run --release -q -p blameit-cli -- scenario check --all 1 --threads 4

echo "==> blameit explain (golden scenario)"
cargo run --release -q -p blameit-cli -- \
  explain incident:0 --scale tiny --seed 2019 --target middle:104 \
  --ms 100 --at-hour 30 --hours 2 --limit 2 \
  | diff - tests/golden/explain_incident.txt

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "OK"
