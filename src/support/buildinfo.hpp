// Build-context introspection so performance binaries can refuse to emit
// numbers from an unoptimized build. NDEBUG is deliberately NOT used: the
// project's Release flags are "-O2 -g" without -DNDEBUG, so the only honest
// signals are the compiler's __OPTIMIZE__ macro and the CMAKE_BUILD_TYPE
// baked in via the PT_BUILD_TYPE compile definition (CMakeLists.txt).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pt::support {

/// CMake build type the translation unit was compiled under ("Release",
/// "RelWithDebInfo", "Debug", ...), or "unknown" for out-of-tree builds.
inline const char* buildType() {
#ifdef PT_BUILD_TYPE
  return PT_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// True when the compiler ran with optimization enabled (-O1 or higher).
inline constexpr bool buildIsOptimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

/// True when this binary is fit for reporting performance numbers: compiled
/// with optimization AND under a Release-flavored CMake build type.
inline bool buildIsBenchmarkable() {
  return buildIsOptimized() && (std::strcmp(buildType(), "Release") == 0 ||
                                std::strcmp(buildType(), "RelWithDebInfo") == 0);
}

// ---- SIMD instruction-set selection ----------------------------------------
// The MATVEC microkernels (fem/simd.hpp) are compiled for every ISA tier the
// toolchain supports and picked at runtime, so one binary runs everywhere at
// the best width the CPU offers. The selection lives here (not in fem/) so
// benchmark JSON writers and the build banner can report it without pulling
// in the kernels, and so the PT_SIMD env override has exactly one reader.
//
//   PT_SIMD=scalar|avx2|avx512   force a tier (clamped down to what the CPU
//                                actually supports; never clamped up)
//
// On non-x86 targets (or non-GNU compilers) the scalar tier is the only one
// compiled, and simdIsaName() reports "scalar".

namespace buildinfodetail {
inline int detectSimdTier() {
  int tier = 0;  // 0 = scalar, 1 = avx2, 2 = avx512
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) tier = 1;
  if (__builtin_cpu_supports("avx512f")) tier = 2;
#endif
  const char* want = std::getenv("PT_SIMD");
  if (want) {
    int req = tier;
    if (std::strcmp(want, "scalar") == 0) req = 0;
    else if (std::strcmp(want, "avx2") == 0) req = 1;
    else if (std::strcmp(want, "avx512") == 0) req = 2;
    else
      std::fprintf(stderr,
                   "PT_SIMD=%s: unknown ISA (want scalar|avx2|avx512); "
                   "keeping runtime detection\n",
                   want);
    tier = req < tier ? req : (req > tier ? tier : req);  // clamp down only
  }
  return tier;
}

inline int& simdTierSlot() {
  static int tier = detectSimdTier();
  return tier;
}
}  // namespace buildinfodetail

/// Selected SIMD tier: 0 = scalar, 1 = AVX2+FMA, 2 = AVX-512F. Runtime CPU
/// detection clamped by the PT_SIMD env override; cached after first call.
inline int simdTier() { return buildinfodetail::simdTierSlot(); }

/// Re-reads the CPU + PT_SIMD selection (tests flip the env var mid-process;
/// production code never needs this).
inline void simdRefresh() {
  buildinfodetail::simdTierSlot() = buildinfodetail::detectSimdTier();
}

/// Human-readable name of the selected tier, recorded in bench JSON `info`.
inline const char* simdIsaName() {
  switch (simdTier()) {
    case 2: return "avx512";
    case 1: return "avx2";
    default: return "scalar";
  }
}

/// Aborts loudly unless the build is benchmarkable. Every benchmark binary
/// calls this first so a debug build can never silently produce BENCH_*.json
/// artifacts. PT_ALLOW_DEBUG_BENCH=1 downgrades the abort to a warning for
/// local smoke runs (never for recorded results).
inline void requireReleaseBuild(const char* benchName) {
  if (buildIsBenchmarkable()) return;
  std::fprintf(stderr,
               "%s: refusing to benchmark a non-release build "
               "(build type '%s', optimized=%d).\n"
               "Build with: cmake --preset release && "
               "cmake --build --preset release\n",
               benchName, buildType(), buildIsOptimized() ? 1 : 0);
  const char* allow = std::getenv("PT_ALLOW_DEBUG_BENCH");
  if (allow && allow[0] == '1') {
    std::fprintf(stderr, "%s: PT_ALLOW_DEBUG_BENCH=1 set, continuing; do NOT "
                         "record these numbers.\n",
                 benchName);
    return;
  }
  std::exit(2);
}

}  // namespace pt::support
