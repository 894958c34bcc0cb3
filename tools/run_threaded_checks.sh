#!/usr/bin/env bash
# Threaded correctness gate for the solver hot path and remesh pipeline
# (DESIGN.md §9, §11).
#
# 1. Full test suite under PT_NUM_THREADS=4: every suite must pass with the
#    pool enabled, and the bitwise-identity tests in test_ksp_threading and
#    test_remesh_fastpath compare threaded results against serial ones and
#    against their in-test reference loops directly.
# 2. The checkpoint/restart and distributed-invariant gate: the full suite
#    again under PT_VALIDATE=1, so every remesh and restart in every test
#    runs the tree/mesh/field invariant validator (DESIGN.md §10).
# 3. ThreadSanitizer over the linear-algebra, CHNS, checkpoint robustness,
#    and remesh fast-path suites (the ones that drive FieldSpace kernels,
#    pooled KSP solves, blocked BSR SpMV, restart-under-fault paths, and
#    the threaded identify/mesh-build loops through the pool), also at
#    PT_NUM_THREADS=4.
# 4. The remesh fast-path suite once more under tsan with PT_VALIDATE=1,
#    so the no-op early exits, incremental rebuilds and the cold-restore
#    oracle's checkpoint restores are invariant-checked while racing the
#    pool.
# 5. The gmg stage (DESIGN.md §13): the V-cycle preconditioner suite
#    serial, with the pool at 4 threads, under tsan at 4 threads, and with
#    PT_VALIDATE=1 (every hierarchy build runs the mesh validator on each
#    coarse level).
# 6. The obs stage (DESIGN.md §12): the telemetry suite serial, with the
#    pool at 4 threads, under tsan at 4 threads (span recording, counter
#    atomicity, and per-thread ring merges race the pool there), and once
#    more with the tracer live (PT_TRACE) while the full release-threads
#    environment is active, with the emitted trace schema-checked by
#    tools/trace_summary.py.
# 7. The simd stage (DESIGN.md §8): the kernel-variant and high-order
#    suites with the dispatch forced to the scalar tier (PT_SIMD=scalar —
#    the pre-SIMD engine bitwise) and again with the widest detected tier,
#    serial and with the pool at 4 threads, then under tsan at 4 threads
#    (the vector tiers share read-only operator caches across partitions).
# 8. The ubsan stage: the kernel-variant, high-order, and matvec-plan
#    suites under UndefinedBehaviorSanitizer at release optimization —
#    the intrinsics tiers, pointer alignment tricks, and padded-panel
#    indexing run exactly as shipped.
# 9. The overlap stage (DESIGN.md §15): the split-phase communication
#    suite — exchange clock-credit semantics, accumulate epoch edge cases,
#    the overlapped MATVEC engines and async transfer epoch against their
#    references, the boundary count, solver histories across thread
#    counts — serial, with the pool at 4 threads, and under tsan at 4
#    threads (the engines race their per-rank loops through the pool).
# 10. The history stage: bench/history_fingerprint prints, in exact hex
#    floating point, the solver counts, field sums, leaf counts and
#    SimComm clocks and stats of four small CHNS scenarios; its outputs
#    at PT_NUM_THREADS=1 and 4 must be byte-identical. (Compiled against
#    a parent commit's src/ too, the same file is the parent-versus-change
#    check for refactors.)
# 11. The farm stage (DESIGN.md §14): the scenario-farm suite serial, with
#    the pool at 4 threads (concurrent jobs, racing init-state cache,
#    work-stealing task queue), under tsan at 4 threads (the shared
#    read-only cache and job bookkeeping race the pool there), and with
#    PT_VALIDATE=1 (every job's remeshes and restores run the invariant
#    validator).
# 12. The profile stage (DESIGN.md §8, §12): the `profile` preset compiles
#    the PT_MATVEC_TIMERS phase timers in, and the telemetry and overlap
#    suites run their timer-only tests there (phase laps recorded through
#    a MatvecPhaseScope under a threaded pool, and routed into the solver's
#    own telemetry).
# 13. The asan stage (DESIGN.md §13): the GMG, CHNS, KSP-threading and
#    remesh fast-path suites under AddressSanitizer at PT_NUM_THREADS=4.
#    The solve families' preconditioner closures capture the family and
#    the mesh by reference, so one that outlived a remesh would show here
#    as a heap-use-after-free.
# 14. The bench-gates stage: bench/run_scaling_bench.sh (fig4a: the
#    MATVEC engine bitwise against matvecNaive at 1..16 simulated ranks
#    on a 3D mesh, its clock never above the reference's and hidden
#    exchange time on more than one rank),
#    bench/run_solver_bench.sh (fig5: thread invariance of the fallback and
#    GMG configurations, and GMG on the fallback's fixed point) and
#    bench/run_farm_bench.sh (fig9: farm jobs bitwise identical to their
#    sequential runs, allocation-free farm bookkeeping, and over 5 rounds
#    of interleaved runs the farm layer's median overhead at most 10% and
#    the median 2.5x scenarios-per-hour bar), each with its BENCH_*.json
#    schema-checked.
#
# Usage: ./tools/run_threaded_checks.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== ctest (release, PT_NUM_THREADS=4) =="
cmake --preset release >/dev/null
cmake --build --preset release -- -j"$(nproc)"
ctest --preset release-threads "$@"

echo "== ctest (release, PT_VALIDATE=1 invariant gate) =="
ctest --preset release-validate "$@"

echo "== ctest (tsan, PT_NUM_THREADS=4, la/chns/ksp/checkpoint/remesh suites) =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan \
  --target test_la test_chns test_ksp_threading test_checkpoint_robustness \
  test_remesh_fastpath \
  -- -j"$(nproc)"
ctest --preset tsan \
  -R 'test_(la|chns|ksp_threading|checkpoint_robustness|remesh_fastpath)$' "$@"

echo "== tsan + PT_VALIDATE=1 remesh fast-path suite =="
PT_VALIDATE=1 ctest --preset tsan -R 'test_remesh_fastpath$' "$@"

echo "== gmg: V-cycle suite (serial, threads=4, tsan, PT_VALIDATE=1) =="
# The GMG preconditioner suite (DESIGN.md §13): hierarchy construction,
# V-cycle contraction, thread-count bitwise identity, and the chns-level
# hierarchy cache tests — serial, with the pool at 4 threads, under tsan
# at 4 threads, and invariant-checked.
ctest --preset release -R 'test_gmg$' "$@"
ctest --preset release-threads -R 'test_gmg$' "$@"
cmake --build --preset tsan --target test_gmg -- -j"$(nproc)"
ctest --preset tsan -R 'test_gmg$' "$@"
PT_VALIDATE=1 ctest --preset release -R 'test_gmg$' "$@"

echo "== obs: telemetry suite (serial, threads=4, tsan) =="
ctest --preset release -R 'test_obs$' "$@"
ctest --preset release-threads -R 'test_obs$' "$@"
cmake --build --preset tsan --target test_obs -- -j"$(nproc)"
ctest --preset tsan -R 'test_obs$' "$@"

echo "== obs: live tracer over the threaded CHNS suite (release-trace preset) =="
# test_chns (not test_obs, which drains the tracer as part of its own
# assertions) so the atexit trace written under PT_TRACE carries the real
# solver/remesh/matvec span timeline; then schema-check it.
rm -f build/tests/ctest_trace.json
ctest --preset release-trace -R 'test_chns$' "$@"
python3 tools/trace_summary.py build/tests/ctest_trace.json

echo "== simd: kernel tiers forced scalar / vector, serial + threads=4, tsan =="
# PT_SIMD=scalar pins the pre-SIMD bitwise baseline; the unset run uses the
# widest tier the CPU supports (the tier tests compare every available tier
# against scalar internally either way).
PT_SIMD=scalar ctest --preset release -R 'test_(simd_kernels|highorder)$' "$@"
PT_SIMD=scalar ctest --preset release-threads -R 'test_(simd_kernels|highorder)$' "$@"
ctest --preset release -R 'test_(simd_kernels|highorder)$' "$@"
ctest --preset release-threads -R 'test_(simd_kernels|highorder)$' "$@"
cmake --build --preset tsan --target test_simd_kernels test_highorder -- -j"$(nproc)"
ctest --preset tsan -R 'test_(simd_kernels|highorder)$' "$@"

echo "== ubsan: simd/high-order/matvec suites at release optimization =="
cmake --preset release-ubsan >/dev/null
cmake --build --preset release-ubsan \
  --target test_simd_kernels test_highorder test_matvec_plan -- -j"$(nproc)"
ctest --preset release-ubsan -R 'test_(simd_kernels|highorder|matvec_plan)$' "$@"

echo "== overlap: split-phase comm suite (serial, threads=4, tsan) =="
# The overlap gate (DESIGN.md §15): the split accumulate, the overlapped
# matvecIndexed and the async transfer epoch must match their references
# with blocking exchanges exactly, and matvecCoefBlocks its per-element
# reference to roundoff and itself across thread counts bitwise — serial
# and with the pool at 4 threads, and clean under tsan.
ctest --preset release -R 'test_overlap$' "$@"
ctest --preset release-threads -R 'test_overlap$' "$@"
cmake --build --preset tsan --target test_overlap -- -j"$(nproc)"
ctest --preset tsan -R 'test_overlap$' "$@"

echo "== history: solver-history fingerprint, 1 vs 4 threads =="
PT_NUM_THREADS=1 ./build/bench/history_fingerprint > build/history_t1.txt
PT_NUM_THREADS=4 ./build/bench/history_fingerprint > build/history_t4.txt
cmp build/history_t1.txt build/history_t4.txt

echo "== farm: scenario-farm suite (serial, threads=4, tsan, PT_VALIDATE=1) =="
ctest --preset release -R 'test_farm$' "$@"
ctest --preset release-threads -R 'test_farm$' "$@"
cmake --build --preset tsan --target test_farm -- -j"$(nproc)"
ctest --preset tsan -R 'test_farm$' "$@"
PT_VALIDATE=1 ctest --preset release -R 'test_farm$' "$@"

echo "== profile: PT_MATVEC_TIMERS telemetry and overlap suites =="
cmake --preset profile >/dev/null
cmake --build --preset profile --target test_obs test_overlap -- -j"$(nproc)"
ctest --preset profile -R 'test_(obs|overlap)$' "$@"

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
