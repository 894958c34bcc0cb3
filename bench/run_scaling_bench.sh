#!/usr/bin/env bash
# Builds the release preset and runs the Fig 4a strong-scaling sweep
# (bench/fig4a_matvec_strong.cpp), which validates the split-phase MATVEC
# against the one-pass fem::matvecNaive on simulated ranks
# (bitwise-identical outputs, clock never above the reference's) and
# projects the blocking and overlap charge models to 114,688 ranks,
# writing BENCH_scaling.json in the current directory.
#
# The release preset is configured and built explicitly — numbers from a
# debug tree are worthless, and the binary itself also refuses to run if it
# was compiled without optimization (support/buildinfo.hpp).
#
#   ./bench/run_scaling_bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset release >/dev/null
cmake --build --preset release --target fig4a_matvec_strong -- -j"$(nproc)"

BIN=build/bench/fig4a_matvec_strong
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN missing after release build" >&2
  exit 1
fi
"$BIN" "$@"

# Schema gate: a malformed BENCH_scaling.json fails the run (pt-bench-v1,
# tools/trace_summary.py).
python3 tools/trace_summary.py BENCH_scaling.json

# Regression gate: when a baseline report is supplied (PT_BENCH_BASELINE=
# path/to/BENCH_scaling.json from a trusted earlier run), any config whose
# timing metric or derived overlap speedup moved >10% in the bad direction
# fails the run (tools/bench_compare.py exits nonzero).
if [[ -n "${PT_BENCH_BASELINE:-}" ]]; then
  python3 tools/bench_compare.py "$PT_BENCH_BASELINE" BENCH_scaling.json
fi
