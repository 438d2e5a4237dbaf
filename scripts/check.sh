#!/usr/bin/env bash
# Full verification sweep: the regular test suite in the default build
# with warnings as errors, the full suite again in a Debug +
# AddressSanitizer/UBSan build (leaks, lifetime bugs and undefined
# behaviour anywhere in the simulator), a build-only Debug +
# ThreadSanitizer step (the simulator is single-threaded — no test
# starts a thread — so running the suite under TSan would check nothing
# ASan does not; the build keeps FLICK_SANITIZE=thread compiling for a
# future parallel backend), and a docs-drift guard keeping DESIGN.md's
# configuration table in sync with SystemConfig and CallSpec in both
# directions.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)

echo "== docs drift guard: SystemConfig fluent options in DESIGN.md =="
missing=0
for opt in $(grep -oE 'SystemConfig &[[:space:]]*$|with[A-Z][A-Za-z0-9]*' \
                 src/flick/system.hh | grep -oE 'with[A-Z][A-Za-z0-9]*' |
                 sort -u); do
    if ! grep -q "$opt" DESIGN.md; then
        echo "DESIGN.md does not mention SystemConfig::$opt" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "docs drift: document the options above in DESIGN.md" >&2
    exit 1
fi
echo "all SystemConfig::with* options documented"

echo
echo "== docs drift guard: DESIGN.md config table lists only real options =="
# The reverse direction: every with* option a row of the "Configuration
# reference" table names must still be declared in system.hh (a method
# name at the start of its line, as the fluent setters are written).
declared=$(grep -oE '^[[:space:]]+with[A-Z][A-Za-z0-9]*\(' \
               src/flick/system.hh | grep -oE 'with[A-Z][A-Za-z0-9]*' |
           sort -u)
listed=$(sed -n '/^### Configuration reference/,/^#/p' DESIGN.md |
         grep -E '^\|' | grep -oE 'with[A-Z][A-Za-z0-9]*' | sort -u)
if [ -z "$listed" ]; then
    echo "DESIGN.md has no Configuration reference table rows" >&2
    exit 1
fi
stale=0
for opt in $listed; do
    if ! grep -qx "$opt" <<<"$declared"; then
        echo "DESIGN.md lists $opt, which system.hh no longer declares" >&2
        stale=1
    fi
done
if [ "$stale" -ne 0 ]; then
    echo "docs drift: drop the rows above from DESIGN.md" >&2
    exit 1
fi
echo "every option in the DESIGN.md config table exists"

echo
echo "== docs drift guard: flick.* stat families in DESIGN.md =="
# Every counter family the engine, residency tracker and migrator emit
# must appear (as flick.<family> / flick.residency.<family>) in the
# §15 counter reference. Literal key prefixes are extracted from the
# stat-emission sites; dynamic suffixes (_dev%u, _cr3#<k>, ...) reduce
# to their literal stem, which the reference spells as e.g.
# flick.host_to_nxp_calls_dev<k>. Interned counters name their key
# where they are declared ({_stats, "key"}).
missing=0
engine_keys=$(grep -hE '_stats\.(inc|set|add)\(|stats\(\)\.inc\(|_tenantStats\.add\(|protoStat\(|^[[:space:]]*: "|\{_stats, "|return "qos\.' \
                  src/flick/runtime.cc src/flick/runtime.hh \
                  src/flick/qos.cc src/spec/speculation.cc |
              grep -oE '"[a-z][a-z_0-9.]*' | tr -d '"' | sort -u)
residency_keys=$(grep -hE '_stats\.(inc|set)\(' src/flick/migrator.cc \
                     src/mem/residency.hh |
                 grep -oE '"[a-z][a-z_0-9.]*' | tr -d '"' | sort -u)
for key in $engine_keys; do
    if ! grep -qF "flick.$key" DESIGN.md; then
        echo "DESIGN.md does not mention stat family flick.$key" >&2
        missing=1
    fi
done
for key in $residency_keys; do
    if ! grep -qF "flick.residency.$key" DESIGN.md; then
        echo "DESIGN.md does not mention stat family flick.residency.$key" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "docs drift: add the families above to DESIGN.md §15" >&2
    exit 1
fi
echo "all flick.* stat families documented"

echo
echo "== release build (warnings are errors) + full test suite =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo
echo "== interp bench, smoke mode (cached vs reference identity) =="
./build/bench/bench_interp --smoke

echo
echo "== placement bench, smoke mode =="
./build/bench/bench_placement --smoke

echo
echo "== placement bench, 8-device fabric smoke =="
./build/bench/bench_placement --devices=8 --smoke

echo
echo "== placement bench, sharded residency study smoke =="
./build/bench/bench_placement --workload=sharded --smoke

echo
echo "== SLO bench, smoke mode (overload-survival gates) =="
./build/bench/bench_slo --smoke

echo
echo "== speculation bench, smoke mode (break-even storm gates) =="
./build/bench/bench_speculation --smoke

echo
echo "== debug + asan/ubsan build, full test suite =="
cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=Debug -DFLICK_SANITIZE=address,undefined \
    -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined >/dev/null
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo
echo "== debug + tsan build (build only: no test starts a thread) =="
cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug -DFLICK_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs"

echo
echo "all checks passed"
