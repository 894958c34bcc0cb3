// SIMD microkernels for the batched MATVEC engine (DESIGN.md §8).
//
// The batched engine's FLOPs concentrate in one shape: a small dense
// elemental operator A (kN x kN, kN = nodes per element) applied to a
// dof-major panel X (kN rows, one column per (element, dof) pair of the
// batch). The baseline compiles that loop nest for the x86-64 baseline ISA
// (SSE2, 2 doubles/vector, no FMA); this header provides the same kernel as
// explicit AVX2+FMA and AVX-512F tiers selected at RUNTIME, so a single
// binary uses the widest ISA the machine offers. Selection policy (CPU
// detection + the PT_SIMD=scalar|avx2|avx512 override, clamped down to what
// the CPU supports) lives in support/buildinfo.hpp; this header maps the
// selected tier to function pointers.
//
// Panel layout contract: columns are padded to a multiple of kPanelPad
// doubles (one AVX-512 vector, two AVX2 vectors) and panels are allocated
// kPanelAlign-aligned (PanelBuf). The gather zeroes the pad columns once,
// the vector kernels stream over the padded width with unaligned loads (so
// deliberately misaligned panels stay correct, merely slower), and the
// scatter reads only the real columns. The scalar tier iterates the real
// width only, with exactly the historical operation order — so forcing
// PT_SIMD=scalar reproduces the pre-SIMD engine bit-for-bit, which is the
// equivalence baseline the kernel-variant tests pin.
//
// Accuracy: the vector tiers reassociate (vector-lane partial sums) and
// contract multiply-adds to FMAs, so they agree with the scalar tier to
// roundoff (~1e-13 rel), not bitwise. For a FIXED tier every kernel is a
// pure function of its inputs, so the batched engines' contract — bitwise
// identical results for any thread count — holds under every tier.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "support/buildinfo.hpp"
#include "support/check.hpp"
#include "support/types.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define PT_SIMD_X86 1
#endif

namespace pt::fem {

/// Kernel ISA tier. Numeric values match support::simdTier().
enum class SimdIsa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// The runtime-selected tier (CPU detection clamped by PT_SIMD).
inline SimdIsa simdIsa() {
  return static_cast<SimdIsa>(support::simdTier());
}

inline const char* simdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx512: return "avx512";
    case SimdIsa::kAvx2: return "avx2";
    default: return "scalar";
  }
}

/// Panel columns are padded to a multiple of this many doubles.
inline constexpr int kPanelPad = 8;
/// Panel base alignment (bytes): one cache line / one AVX-512 vector.
inline constexpr std::size_t kPanelAlign = 64;

/// Padded column count for a panel with `cols` live columns.
inline constexpr int padCols(int cols) {
  return (cols + kPanelPad - 1) / kPanelPad * kPanelPad;
}

/// Cache-line-aligned scratch panel (std::vector<Real> only guarantees
/// alignof(Real)). Grow-only, never value-initializes: the gather writes
/// every live column and zeroes the pad columns each batch.
class PanelBuf {
 public:
  PanelBuf() = default;
  PanelBuf(const PanelBuf&) = delete;
  PanelBuf& operator=(const PanelBuf&) = delete;
  ~PanelBuf() { ::operator delete[](p_, std::align_val_t(kPanelAlign)); }

  /// Ensures capacity for n Reals (64-byte aligned base).
  Real* ensure(std::size_t n) {
    if (n > cap_) {
      ::operator delete[](p_, std::align_val_t(kPanelAlign));
      p_ = static_cast<Real*>(
          ::operator new[](n * sizeof(Real), std::align_val_t(kPanelAlign)));
      cap_ = n;
    }
    return p_;
  }
  Real* data() { return p_; }

 private:
  Real* p_ = nullptr;
  std::size_t cap_ = 0;
};

// ---------------------------------------------------------------------------
// Panel GEMM: Y = A * X
//   A      kN x kN row-major elemental operator
//   X, Y   kN rows with row stride colsPad; `cols` live columns
// Y is overwritten (no separate zero pass).
// ---------------------------------------------------------------------------

namespace simddetail {

// The scalar tier only vectorizes at -O3 (GCC's -O2 cost model skips the
// column loops); scope that here instead of changing global flags — exactly
// the trick the pre-SIMD engine used, so the scalar tier reproduces it.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("O3")
#endif

/// Historical operation order: row i streams c in [0, cols), first rank-1
/// term stores, the rest accumulate. Bitwise identical to the pre-SIMD
/// engine (the row stride changed from cols to colsPad, which does not
/// alter any FP operation).
inline void panelGemmScalar(const Real* A, int kN, const Real* X, Real* Y,
                            int cols, int colsPad) {
  for (int i = 0; i < kN; ++i) {
    Real* __restrict__ Yi = &Y[std::size_t(i) * colsPad];
    const Real* __restrict__ Ai = &A[std::size_t(i) * kN];
    {
      const Real a = Ai[0];
      const Real* __restrict__ X0 = &X[0];
      for (int c = 0; c < cols; ++c) Yi[c] = a * X0[c];
    }
    for (int j = 1; j < kN; ++j) {
      const Real a = Ai[j];
      const Real* __restrict__ Xj = &X[std::size_t(j) * colsPad];
      for (int c = 0; c < cols; ++c) Yi[c] += a * Xj[c];
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

#ifdef PT_SIMD_X86

/// AVX2+FMA tier: 8-column blocks (two ymm), four row accumulators — X rows
/// are loaded once per row-quad and A entries broadcast, so the inner loop
/// is 8 FMAs on held registers. Unaligned loads/stores throughout (same
/// speed as aligned on aligned data, correct on misaligned panels).
__attribute__((target("avx2,fma"))) inline void panelGemmAvx2(
    const Real* A, int kN, const Real* X, Real* Y, int /*cols*/,
    int colsPad) {
  constexpr int kRB = 4;
  for (int c0 = 0; c0 < colsPad; c0 += 8) {
    for (int i0 = 0; i0 < kN; i0 += kRB) {
      const int rb = (kN - i0) < kRB ? (kN - i0) : kRB;
      __m256d acc0[kRB], acc1[kRB];
      for (int r = 0; r < rb; ++r) {
        acc0[r] = _mm256_setzero_pd();
        acc1[r] = _mm256_setzero_pd();
      }
      for (int j = 0; j < kN; ++j) {
        const Real* Xj = &X[std::size_t(j) * colsPad + c0];
        const __m256d x0 = _mm256_loadu_pd(Xj);
        const __m256d x1 = _mm256_loadu_pd(Xj + 4);
        for (int r = 0; r < rb; ++r) {
          const __m256d a = _mm256_set1_pd(A[std::size_t(i0 + r) * kN + j]);
          acc0[r] = _mm256_fmadd_pd(a, x0, acc0[r]);
          acc1[r] = _mm256_fmadd_pd(a, x1, acc1[r]);
        }
      }
      for (int r = 0; r < rb; ++r) {
        Real* Yi = &Y[std::size_t(i0 + r) * colsPad + c0];
        _mm256_storeu_pd(Yi, acc0[r]);
        _mm256_storeu_pd(Yi + 4, acc1[r]);
      }
    }
  }
}

/// AVX-512F tier. Main tile: 2 rows x 32 columns (4 zmm per row), so each
/// broadcast of an A entry feeds four FMAs on held column vectors and each
/// column vector serves two rows — 6 loads per 8 FMAs keeps the loop
/// FMA-port bound (the naive 1-row-block layout re-broadcasts A per 8
/// columns and is load-port bound instead). Column tail (< 32 remaining)
/// falls back to an 8-row x 8-column tile.
__attribute__((target("avx512f"))) inline void panelGemmAvx512(
    const Real* A, int kN, const Real* X, Real* Y, int /*cols*/,
    int colsPad) {
  int c0 = 0;
  for (; c0 + 32 <= colsPad; c0 += 32) {
    for (int i0 = 0; i0 < kN; i0 += 2) {
      const int rb = (kN - i0) < 2 ? (kN - i0) : 2;
      __m512d acc[2][4];
      for (int r = 0; r < rb; ++r)
        for (int b = 0; b < 4; ++b) acc[r][b] = _mm512_setzero_pd();
      for (int j = 0; j < kN; ++j) {
        const Real* Xj = &X[std::size_t(j) * colsPad + c0];
        const __m512d x0 = _mm512_loadu_pd(Xj);
        const __m512d x1 = _mm512_loadu_pd(Xj + 8);
        const __m512d x2 = _mm512_loadu_pd(Xj + 16);
        const __m512d x3 = _mm512_loadu_pd(Xj + 24);
        for (int r = 0; r < rb; ++r) {
          const __m512d a = _mm512_set1_pd(A[std::size_t(i0 + r) * kN + j]);
          acc[r][0] = _mm512_fmadd_pd(a, x0, acc[r][0]);
          acc[r][1] = _mm512_fmadd_pd(a, x1, acc[r][1]);
          acc[r][2] = _mm512_fmadd_pd(a, x2, acc[r][2]);
          acc[r][3] = _mm512_fmadd_pd(a, x3, acc[r][3]);
        }
      }
      for (int r = 0; r < rb; ++r) {
        Real* Yi = &Y[std::size_t(i0 + r) * colsPad + c0];
        for (int b = 0; b < 4; ++b)
          _mm512_storeu_pd(Yi + 8 * b, acc[r][b]);
      }
    }
  }
  for (; c0 < colsPad; c0 += 8) {
    constexpr int kRB = 8;
    for (int i0 = 0; i0 < kN; i0 += kRB) {
      const int rb = (kN - i0) < kRB ? (kN - i0) : kRB;
      __m512d acc[kRB];
      for (int r = 0; r < rb; ++r) acc[r] = _mm512_setzero_pd();
      for (int j = 0; j < kN; ++j) {
        const __m512d x = _mm512_loadu_pd(&X[std::size_t(j) * colsPad + c0]);
        for (int r = 0; r < rb; ++r)
          acc[r] = _mm512_fmadd_pd(
              _mm512_set1_pd(A[std::size_t(i0 + r) * kN + j]), x, acc[r]);
      }
      for (int r = 0; r < rb; ++r)
        _mm512_storeu_pd(&Y[std::size_t(i0 + r) * colsPad + c0], acc[r]);
    }
  }
}

#endif  // PT_SIMD_X86

}  // namespace simddetail

/// Y = A * X on a padded panel, at the requested tier. The scalar tier
/// touches only the live `cols` columns in the historical operation order;
/// the vector tiers stream the full padded width (pad columns must hold
/// defined values — the gather zeroes them).
inline void panelGemm(SimdIsa isa, const Real* A, int kN, const Real* X,
                      Real* Y, int cols, int colsPad) {
#ifdef PT_SIMD_X86
  if (isa == SimdIsa::kAvx512)
    return simddetail::panelGemmAvx512(A, kN, X, Y, cols, colsPad);
  if (isa == SimdIsa::kAvx2)
    return simddetail::panelGemmAvx2(A, kN, X, Y, cols, colsPad);
#else
  (void)isa;
#endif
  simddetail::panelGemmScalar(A, kN, X, Y, cols, colsPad);
}

// ---------------------------------------------------------------------------
// Panel gather / scatter (the zip/unzip loops of the batched engine)
// ---------------------------------------------------------------------------

namespace simddetail {

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("O3")
#endif

/// Gather with a compile-time dof count so the per-node copy is a straight
/// run of loads/stores (the compiler fuses ND >= 2 into vector moves).
template <int ND>
inline void gatherRowsFixed(const Real* __restrict__ x,
                            const std::uint32_t* __restrict__ nodesT, int kN,
                            int m, int colsPad, Real* __restrict__ X) {
  const int cols = m * ND;
  for (int j = 0; j < kN; ++j) {
    const std::uint32_t* nj = &nodesT[std::size_t(j) * m];
    Real* dst = &X[std::size_t(j) * colsPad];
    for (int ei = 0; ei < m; ++ei) {
      const Real* src = &x[std::size_t(nj[ei]) * ND];
      for (int d = 0; d < ND; ++d) dst[ei * ND + d] = src[d];
    }
    for (int c = cols; c < colsPad; ++c) dst[c] = 0.0;
  }
}

inline void gatherRowsGeneric(const Real* __restrict__ x,
                              const std::uint32_t* __restrict__ nodesT,
                              int kN, int m, int ndof, int colsPad,
                              Real* __restrict__ X) {
  const int cols = m * ndof;
  for (int j = 0; j < kN; ++j) {
    const std::uint32_t* nj = &nodesT[std::size_t(j) * m];
    Real* dst = &X[std::size_t(j) * colsPad];
    for (int ei = 0; ei < m; ++ei) {
      const Real* src = &x[std::size_t(nj[ei]) * ndof];
      for (int d = 0; d < ndof; ++d) dst[ei * ndof + d] = src[d];
    }
    for (int c = cols; c < colsPad; ++c) dst[c] = 0.0;
  }
}

/// Scatter-add with a compile-time dof count. Only the per-(element, node)
/// dof run is vectorized — those ND adds hit ND distinct addresses, so
/// fusing them into vector adds changes no FP operation; the (element,
/// node) iteration order stays element-outer as the bitwise contract
/// requires.
template <int ND>
inline void scatterRowsFixed(const Real* __restrict__ Y,
                             const std::uint32_t* __restrict__ nodes, int kN,
                             int m, int colsPad, Real* y) {
  for (int ei = 0; ei < m; ++ei) {
    const std::uint32_t* ne = &nodes[std::size_t(ei) * kN];
    for (int j = 0; j < kN; ++j) {
      Real* dst = &y[std::size_t(ne[j]) * ND];
      const Real* src = &Y[std::size_t(j) * colsPad + std::size_t(ei) * ND];
      for (int d = 0; d < ND; ++d) dst[d] += src[d];
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

}  // namespace simddetail

/// Zips a batch's nodal values into the dof-major panel X (column (e, d)
/// holds dof d of element e), streaming each panel row unit-stride through
/// the plan's TRANSPOSED (struct-of-arrays) node map: nodesT holds kN runs
/// of m node indices, run j listing local node j of every element in the
/// batch. Pad columns [m*ndof, colsPad) are zeroed so the vector GEMM tiers
/// read defined values. Pure copy — any tier, any order, same values.
inline void gatherPanelT(const Real* x, const std::uint32_t* nodesT, int kN,
                         int m, int ndof, int colsPad, Real* X) {
  switch (ndof) {
    case 1: return simddetail::gatherRowsFixed<1>(x, nodesT, kN, m, colsPad, X);
    case 2: return simddetail::gatherRowsFixed<2>(x, nodesT, kN, m, colsPad, X);
    case 3: return simddetail::gatherRowsFixed<3>(x, nodesT, kN, m, colsPad, X);
    case 4: return simddetail::gatherRowsFixed<4>(x, nodesT, kN, m, colsPad, X);
    case 5: return simddetail::gatherRowsFixed<5>(x, nodesT, kN, m, colsPad, X);
    default:
      return simddetail::gatherRowsGeneric(x, nodesT, kN, m, ndof, colsPad, X);
  }
}

/// Unzips a result panel back to nodal storage with ADD semantics, through
/// the element-major node map, in the engine's historical accumulation
/// order (element-outer, node-inner): elements of one batch can share
/// nodes, so this order is part of the scalar tier's bitwise contract.
inline void scatterAddPanel(const Real* Y, const std::uint32_t* nodes, int kN,
                            int m, int ndof, int colsPad, Real* y) {
  switch (ndof) {
    case 1:
      return simddetail::scatterRowsFixed<1>(Y, nodes, kN, m, colsPad, y);
    case 2:
      return simddetail::scatterRowsFixed<2>(Y, nodes, kN, m, colsPad, y);
    case 3:
      return simddetail::scatterRowsFixed<3>(Y, nodes, kN, m, colsPad, y);
    case 4:
      return simddetail::scatterRowsFixed<4>(Y, nodes, kN, m, colsPad, y);
    case 5:
      return simddetail::scatterRowsFixed<5>(Y, nodes, kN, m, colsPad, y);
    default: break;
  }
  for (int ei = 0; ei < m; ++ei) {
    const std::uint32_t* ne = &nodes[std::size_t(ei) * kN];
    for (int j = 0; j < kN; ++j) {
      Real* dst = &y[std::size_t(ne[j]) * ndof];
      const Real* src = &Y[std::size_t(j) * colsPad + std::size_t(ei) * ndof];
      for (int d = 0; d < ndof; ++d) dst[d] += src[d];
    }
  }
}

}  // namespace pt::fem
