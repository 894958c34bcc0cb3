#!/usr/bin/env bash
# Builds (Release preset) and runs the Fig 8 remesh-pipeline benchmark.
# Produces BENCH_remesh.json in the repo root and exits nonzero if the
# 4-thread run's final tree/fields diverge from the serial run's.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset release >/dev/null
cmake --build --preset release --target fig8_remesh_pipeline -- -j"$(nproc)"

BIN=build/bench/fig8_remesh_pipeline
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found after build" >&2
  exit 1
fi
"$BIN" "$@"

# Schema gate: a malformed BENCH_remesh.json fails the run (pt-bench-v1,
# tools/trace_summary.py). Compare runs with tools/bench_compare.py.
python3 tools/trace_summary.py BENCH_remesh.json
