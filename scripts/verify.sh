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
rc=0; "$LINT" --root "$BAD_TREE" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "expected exit 1 on the bad fixture tree, got $rc"; exit 1; }
rc=0; "$LINT" --root "$BAD_TREE" --only as-cast-truncation >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 0 ] || { echo "expected exit 0 with --only filtering the finding out, got $rc"; exit 1; }
rc=0; "$LINT" --definitely-not-a-flag >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 on an unknown flag, got $rc"; exit 1; }

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
scripts/daemon-smoke.sh "$DSTATE"
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
