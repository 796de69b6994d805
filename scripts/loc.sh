#!/usr/bin/env bash
# Non-test Rust lines per crate and for the workspace: in every `.rs`
# file under `crates/*/src`, the lines before the first line that
# *starts* with `#[cfg(test)]` (the whole file when it has none; a doc
# comment that mentions the attribute does not end the count).
# Comments and blank lines count — the figure tracks how much there is
# to read, and only its movement between two commits means anything.
#
#   scripts/loc.sh            the tree this script sits in
#   scripts/loc.sh <dir>      another checkout (e.g. the parent commit)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for crate in crates/*/; do
  [ -d "$crate/src" ] || continue
  n=$(find "$crate/src" -name '*.rs' -exec awk \
    'FNR == 1 { on = 1 } /^[ \t]*#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }' {} + |
    awk '{ s += $1 } END { print s + 0 }')
  printf '%-10s %6d\n' "$(basename "$crate")" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
