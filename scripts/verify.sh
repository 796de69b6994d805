#!/usr/bin/env bash
# The checks CI runs, by stage. `.github/workflows/ci.yml` calls one
# stage per job (`scripts/verify.sh lint`, …) and keeps only checkout,
# toolchain, cache and artifact steps, so this file is the one list.
#
#   scripts/verify.sh                 every stage, in order (before pushing)
#   scripts/verify.sh lint test       just those stages
#
# Stages: lint, test, benchmark-api, daemon. The `test` stage honours an
# ambient BLAMEIT_THREADS (CI's matrix sets "" and "8"; locally
# `BLAMEIT_THREADS=8 scripts/verify.sh test` is the sharded leg) and
# runs fmt + clippy only when it is unset or empty, as the default leg
# does.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { echo "==> $*"; "$@"; }

stage_lint() {
  step cargo run --release -p blameit-lint -- --self-check
  step cargo run --release -p blameit-lint
  step cargo run --release -p blameit-lint -- --only stale-suppression

  echo "==> blameit-lint exit-code contract (0 clean / 1 findings / 2 usage)"
  local lint=target/release/blameit-lint
  local bad_tree=crates/lint/tests/fixtures/transitive-effect/bad
  local rc
  rc=0; "$lint" --root "$bad_tree" >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 1 ] || { echo "expected exit 1 on the bad fixture tree, got $rc"; exit 1; }
  rc=0; "$lint" --root "$bad_tree" --only as-cast-truncation >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 0 ] || { echo "expected exit 0 with --only filtering the finding out, got $rc"; exit 1; }
  rc=0; "$lint" --definitely-not-a-flag >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || { echo "expected exit 2 on an unknown flag, got $rc"; exit 1; }

  # Not a gate: the size figure PR descriptions quote before/after.
  step scripts/loc.sh
}

stage_test() {
  step cargo build --release --workspace
  # Includes tests/scenario_library.rs: all 15 scenarios through the
  # golden checker at 1 and 4 engine threads, in-process.
  step cargo test --workspace -q
  # The byte kernels (lane CRC-32, whole-column decode) against their
  # references, the codec's budget tests and the snapshot round-trip and
  # fuzz properties, under the optimised codegen that ships.
  step cargo test --release -q -p blameit --lib persist::
  step cargo test --release -q -p blameit --test persist_props
  step cargo test --release -q --test parallel_determinism --test golden_output
  BLAMEIT_THREADS=8 step cargo test --release -q --test chaos_determinism
  BLAMEIT_THREADS=8 step cargo test --release -q --test crash_recovery
  # The paper's numbers at default scale (the tiny-scale bands ran in
  # `cargo test` above).
  step cargo test --release -q -p blameit-bench --test paper_claims -- --ignored

  echo "==> blameit explain (golden scenario)"
  cargo run --release -q -p blameit-cli -- \
    explain incident:0 --scale tiny --seed 2019 --target middle:104 \
    --ms 100 --at-hour 30 --hours 2 --limit 2 \
    | diff - tests/golden/explain_incident.txt
  # One pass through the CLI verb, in release, sharded: the same checker
  # `cargo test` ran in-process in debug at 1 and 4 threads.
  step cargo run --release -q -p blameit-cli -- scenario check --all 1 --threads 4

  if [ -z "${BLAMEIT_THREADS:-}" ]; then
    step cargo fmt --all --check
    step cargo clippy --workspace --all-targets -- -D warnings
  fi
}

stage_benchmark_api() {
  # benchmark/ is frozen between perf baselines; a renamed export or a
  # changed on-disk format must fail here, not in the perf pipeline.
  step cargo test --offline --manifest-path benchmark/Cargo.toml
}

stage_daemon() {
  step cargo build --release -p blameit-daemon -p blameit-cli
  # The daemon's own unit tests, under the codegen that ships: the WAL's
  # byte counts and the previous layout's committed fixture among them.
  step cargo test --release -q -p blameit-daemon --lib
  BLAMEIT_THREADS=8 step cargo test --release -q \
    --test daemon_overload --test daemon_crash --test daemon_smoke
  echo "==> blameitd smoke: 10x surge feed, live scrapes, kill -9, fsck of the WAL segments, resume across them, TERM"
  # Left behind (gitignored) so CI can upload the scrapes and, on
  # failure, the whole state dir.
  rm -rf daemon-smoke-state
  scripts/daemon-smoke.sh daemon-smoke-state
}

[ "$#" -gt 0 ] || set -- lint test benchmark-api daemon
for stage in "$@"; do
  case "$stage" in
    lint) stage_lint ;;
    test) stage_test ;;
    benchmark-api) stage_benchmark_api ;;
    daemon) stage_daemon ;;
    *) echo "unknown stage '$stage' (stages: lint test benchmark-api daemon)" >&2; exit 2 ;;
  esac
done
echo "OK"
