#!/usr/bin/env bash
# Byte-identity check for refactoring and perf changes: builds revision
# REV (default HEAD) from `git archive` in a throwaway directory and the
# working tree in ./build, both in the default build type, runs the
# deterministic bench commands below in each, and compares every pair
# of outputs (stdout, stderr and exit status) with cmp. Exits non-zero
# if any pair differs.
#
#   scripts/identity.sh [rev]
#
# Not part of scripts/check.sh: it builds a second tree.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)
rev=${1:-HEAD}
jobs=$(nproc 2>/dev/null || echo 4)

benches=(
    "bench_table3_roundtrip"
    "bench_table3_breakdown"
    "bench_table4_bfs --scale=64"
    "bench_ablation_multinxp"
    "bench_ablation_freq"
    "bench_ablation_offload"
    "bench_placement --smoke"
    "bench_slo --smoke"
    "bench_speculation --smoke"
)
targets=$(for b in "${benches[@]}"; do echo "${b%% *}"; done | sort -u)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src" "$tmp/run"

echo "== building $rev =="
git archive --format=tar "$rev" | tar -x -C "$tmp/src"
cmake -B "$tmp/build" -S "$tmp/src" >/dev/null
# shellcheck disable=SC2086
cmake --build "$tmp/build" -j "$jobs" --target $targets >/dev/null

echo "== building the working tree =="
cmake -B build -S . >/dev/null
# shellcheck disable=SC2086
cmake --build build -j "$jobs" --target $targets >/dev/null

# Run one bench binary ($2, then its arguments) and capture its output
# and exit status in $1.
run() {
    local out=$1 bin=$2 rc=0
    shift 2
    (cd "$tmp/run" && "$bin" "$@") >"$out" 2>&1 || rc=$?
    echo "exit status $rc" >>"$out"
}

status=0
for cmd in "${benches[@]}"; do
    read -r -a argv <<<"$cmd"
    run "$tmp/old.out" "$tmp/build/bench/${argv[0]}" "${argv[@]:1}"
    run "$tmp/new.out" "$root/build/bench/${argv[0]}" "${argv[@]:1}"
    if cmp -s "$tmp/old.out" "$tmp/new.out"; then
        echo "identical  $cmd"
    else
        echo "DIFFERS    $cmd"
        diff "$tmp/old.out" "$tmp/new.out" | head -20 || true
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "outputs differ from $rev" >&2
else
    echo "all outputs byte-identical to $rev"
fi
exit "$status"
