#!/usr/bin/env bash
# Builds the release preset and runs the scenario-farm throughput bench
# (bench/fig9_scenario_farm.cpp), which writes BENCH_farm.json in the
# current directory.
#
# The bench runs the same 8-scenario sweep sequentially on a serial pool
# and as concurrent farm jobs on 4 threads, gates bitwise identity of
# every job's history against the sequential run, asserts the farm layer's
# steady-state bookkeeping is allocation-free, and over 5 rounds of
# interleaved runs bounds the farm layer's median overhead at 10% and
# requires a median >= 2.5x scenarios-per-hour. A debug build refuses to
# run (support/buildinfo.hpp).
#
#   ./bench/run_farm_bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset release >/dev/null
cmake --build --preset release --target fig9_scenario_farm -- -j"$(nproc)"

BIN=build/bench/fig9_scenario_farm
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN missing after release build" >&2
  exit 1
fi
"$BIN" "$@"

# Schema gate: a malformed BENCH_farm.json fails the run (pt-bench-v1,
# tools/trace_summary.py).
python3 tools/trace_summary.py BENCH_farm.json

# Regression gate: when a baseline report is supplied (PT_BENCH_BASELINE=
# path/to/BENCH_farm.json from a trusted earlier run), any config whose
# wall_sec or derived farm speedup moved >10% in the bad direction fails
# the run (tools/bench_compare.py exits nonzero).
if [[ -n "${PT_BENCH_BASELINE:-}" ]]; then
  python3 tools/bench_compare.py "$PT_BENCH_BASELINE" BENCH_farm.json
fi
