#!/usr/bin/env bash
# Regenerate every committed results/*.csv with the release bench binaries
# and fail on any byte difference.
#
# Each binary under crates/bench/src/bin runs from a fresh scratch
# directory (they write results/<id>.csv relative to the working
# directory), then every committed CSV is compared with `cmp`. A CSV the
# binaries no longer produce, or one they produce that is not committed,
# also fails the check.
#
# Usage: scripts/check_results.sh [BIN_DIR]
#   BIN_DIR defaults to target/release; build it first with
#   `cargo build --release -p hswx-bench`.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
bin_dir=$(cd "${1:-$root/target/release}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cd "$work"
for src in "$root"/crates/bench/src/bin/*.rs; do
    name=$(basename "$src" .rs)
    "$bin_dir/$name" > "$work/$name.stdout"
done

status=0
compared=0
for want in "$root"/results/*.csv; do
    got="$work/results/$(basename "$want")"
    compared=$((compared + 1))
    if ! cmp "$want" "$got"; then
        status=1
    fi
done
for got in "$work"/results/*.csv; do
    if [ ! -e "$root/results/$(basename "$got")" ]; then
        echo "not committed: results/$(basename "$got")"
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "all $compared results/*.csv byte-identical"
fi
exit "$status"
