#!/usr/bin/env bash
# Threaded correctness gate (DESIGN.md §8-§15): each suite runs once in
# every configuration it is checked in.
#
# 1. release: the full suite serially (the pool at 1 thread).
# 2. release-threads: the full suite again at PT_NUM_THREADS=4. Every suite
#    must pass with the pool enabled, and the bitwise-identity tests (in
#    test_ksp_threading, test_remesh_fastpath, test_gmg, test_overlap,
#    test_simd_kernels, test_matvec_plan and test_farm) compare threaded
#    results against serial ones and against their in-test references.
# 3. release-validate: the full suite under PT_VALIDATE=1, so every remesh,
#    restart, farm job and GMG hierarchy build runs the tree/mesh/field
#    invariant validator (DESIGN.md §10).
# 4. PT_SIMD=scalar: the kernel-variant and high-order suites with the
#    dispatch forced to the scalar tier (the pre-SIMD engine bitwise),
#    serial and at 4 threads. Steps 1-2 ran them at the widest tier the
#    CPU supports; the tier tests compare every available tier against
#    scalar internally either way (DESIGN.md §8).
# 5. tsan: ThreadSanitizer at PT_NUM_THREADS=4 over every suite that races
#    the pool: FieldSpace kernels, pooled KSP solves and blocked BSR SpMV
#    (la, ksp_threading), CHNS steps, restart-under-fault paths, the
#    threaded identify/mesh-build loops (remesh_fastpath), the balance
#    rank loops (octree) and the mesh-build rank loops (mesh), V-cycles (gmg),
#    span recording and counter atomicity (obs), the SIMD tiers' shared
#    operator caches (simd_kernels, highorder), the split-phase engines
#    (overlap) and the farm's shared cache and job bookkeeping (farm).
#    One build, one ctest call.
# 6. tsan + PT_VALIDATE=1: the remesh fast-path suite, so the no-op early
#    exits, incremental rebuilds and the cold-restore oracle's checkpoint
#    restores are invariant-checked while racing the pool.
# 7. release-trace: the CHNS suite with the tracer live at 4 threads (not
#    test_obs, which drains the tracer as part of its own assertions), so
#    the atexit trace carries the real solver/remesh/matvec span timeline;
#    tools/trace_summary.py schema-checks it (DESIGN.md §12).
# 8. ubsan: the kernel-variant, high-order and matvec-plan suites under
#    UndefinedBehaviorSanitizer at release optimization — the intrinsics
#    tiers, pointer alignment tricks and padded-panel indexing run exactly
#    as shipped.
# 9. history: bench/history_fingerprint prints, in exact hex floating
#    point, the solver counts, field sums, leaf counts and SimComm clocks
#    and stats of four small CHNS scenarios; its outputs at
#    PT_NUM_THREADS=1 and 4 must be byte-identical. (Compiled against a
#    parent commit's src/ too, the same file is the parent-versus-change
#    check for refactors.)
# 10. asan: the GMG, CHNS, KSP-threading and remesh fast-path suites under
#    AddressSanitizer at PT_NUM_THREADS=4. The solve families'
#    preconditioner closures capture the family and the mesh by
#    reference, so one that outlived a remesh would show here as a
#    heap-use-after-free (DESIGN.md §13).
# 11. bench gates: bench/run_scaling_bench.sh (fig4a: the MATVEC engine
#    bitwise against matvecNaive at 1..16 simulated ranks on a 3D mesh,
#    its clock never above the reference's and hidden exchange time on
#    more than one rank), bench/run_solver_bench.sh (fig5: thread
#    invariance of the fallback and GMG configurations, and GMG on the
#    fallback's fixed point) and bench/run_farm_bench.sh (fig9: farm jobs
#    bitwise identical to their sequential runs, allocation-free farm
#    bookkeeping, and over 5 rounds of interleaved runs the farm layer's
#    median overhead at most 10% and the median 2.5x scenarios-per-hour
#    bar), each with its BENCH_*.json schema-checked.
#
# Usage: ./tools/run_threaded_checks.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== ctest (release, serial) =="
cmake --preset release >/dev/null
cmake --build --preset release -- -j"$(nproc)"
ctest --preset release "$@"

echo "== ctest (release, PT_NUM_THREADS=4) =="
ctest --preset release-threads "$@"

echo "== ctest (release, PT_VALIDATE=1 invariant gate) =="
ctest --preset release-validate "$@"

echo "== simd: kernel tiers forced scalar, serial + threads=4 =="
PT_SIMD=scalar ctest --preset release -R 'test_(simd_kernels|highorder)$' "$@"
PT_SIMD=scalar ctest --preset release-threads \
  -R 'test_(simd_kernels|highorder)$' "$@"

echo "== ctest (tsan, PT_NUM_THREADS=4, the suites that race the pool) =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan \
  --target test_la test_chns test_ksp_threading test_checkpoint_robustness \
  test_remesh_fastpath test_gmg test_obs test_simd_kernels test_highorder \
  test_overlap test_farm test_octree test_mesh \
  -- -j"$(nproc)"
ctest --preset tsan -R 'test_(la|chns|ksp_threading|checkpoint_robustness|remesh_fastpath|gmg|obs|simd_kernels|highorder|overlap|farm|octree|mesh)$' "$@"

echo "== tsan + PT_VALIDATE=1 remesh fast-path suite =="
PT_VALIDATE=1 ctest --preset tsan -R 'test_remesh_fastpath$' "$@"

echo "== obs: live tracer over the threaded CHNS suite (release-trace preset) =="
rm -f build/tests/ctest_trace.json
ctest --preset release-trace -R 'test_chns$' "$@"
python3 tools/trace_summary.py build/tests/ctest_trace.json

echo "== ubsan: simd/high-order/matvec suites at release optimization =="
cmake --preset release-ubsan >/dev/null
cmake --build --preset release-ubsan \
  --target test_simd_kernels test_highorder test_matvec_plan -- -j"$(nproc)"
ctest --preset release-ubsan -R 'test_(simd_kernels|highorder|matvec_plan)$' "$@"

echo "== history: solver-history fingerprint, 1 vs 4 threads =="
PT_NUM_THREADS=1 ./build/bench/history_fingerprint > build/history_t1.txt
PT_NUM_THREADS=4 ./build/bench/history_fingerprint > build/history_t4.txt
cmp build/history_t1.txt build/history_t4.txt

echo "== asan: gmg/chns/ksp/remesh suites (PT_NUM_THREADS=4) =="
cmake --preset asan >/dev/null
cmake --build --preset asan \
  --target test_gmg test_chns test_ksp_threading test_remesh_fastpath \
  -- -j"$(nproc)"
ctest --preset asan \
  -R 'test_(gmg|chns|ksp_threading|remesh_fastpath)$' "$@"

echo "== bench gates: fig4a, fig5 and fig9 gates, schema-checked =="
./bench/run_scaling_bench.sh
./bench/run_solver_bench.sh
./bench/run_farm_bench.sh

echo "threaded checks passed"
