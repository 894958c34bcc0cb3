#!/usr/bin/env bash
# Builds the release preset and runs the single-node solver hot-path
# breakdown (bench/fig5_solver_breakdown.cpp), which writes
# BENCH_solver.json in the current directory.
#
# The release preset is configured and built explicitly — numbers from a
# debug tree are worthless, and the binary itself also refuses to run if it
# was compiled without optimization (support/buildinfo.hpp).
#
#   ./bench/run_solver_bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset release >/dev/null
cmake --build --preset release --target fig5_solver_breakdown -- -j"$(nproc)"

BIN=build/bench/fig5_solver_breakdown
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN missing after release build" >&2
  exit 1
fi
"$BIN" "$@"

# Schema gate: a malformed BENCH_solver.json fails the run (pt-bench-v1,
# tools/trace_summary.py).
python3 tools/trace_summary.py BENCH_solver.json

# Regression gate: when a baseline report is supplied (PT_BENCH_BASELINE=
# path/to/BENCH_solver.json from a trusted earlier run), any fallback/gmg
# config whose timing metric or derived speedup moved >10% in the bad
# direction fails the run (tools/bench_compare.py exits nonzero).
if [[ -n "${PT_BENCH_BASELINE:-}" ]]; then
  python3 tools/bench_compare.py "$PT_BENCH_BASELINE" BENCH_solver.json
fi
