// Batched GEMM MATVEC for uniform-coefficient operators (paper Sec II-D,
// Fig 4): instead of re-deriving the elemental action at every element, the
// dense elemental matrix A_e = B^T D B is assembled once per octree *level*
// (A_e depends only on the element size h and the mass/stiffness
// coefficients) and applied to whole batches of pure elements at a time.
//
// The plan's batches are uniform-level runs of pure elements, so one batch
// shares a single A_e. The gather zips the batch's element vectors into a
// contiguous dof-major panel X (kNodes rows x batchElems*ndof columns,
// column (e, d) holding dof d of element e — exactly the GEMM tile the zip
// layout was built for), the apply is one dense kN x kN GEMM streaming
// unit-stride across the panel, and the scatter adds the result panel back
// through the plan's flat node indices. Hanging elements keep their
// per-element weighted gather/scatter (the constraint interpolation), but
// same-level runs of them share panels too, so the A_e apply is the same
// batched GEMM everywhere.
//
// The panel loops run on the fem/simd.hpp microkernels: panels are padded
// to kPanelPad columns and 64-byte aligned, the gather streams unit-stride
// through the plan's transposed (SoA) node map, and the GEMM dispatches at
// runtime to scalar / AVX2+FMA / AVX-512F tiers (PT_SIMD overrides; see
// support/buildinfo.hpp). The scalar tier replays the historical loop nest
// operation-for-operation, so `isa = SimdIsa::kScalar` IS the pre-SIMD
// engine bitwise; the vector tiers agree to roundoff (~1e-13 rel).
//
// Accuracy contract: this path REASSOCIATES floating point relative to the
// per-element engine (panel GEMM sums in a different order; the coefficient
// folding in A_e differs from applyMass/applyStiffness's scale-after-sum),
// so results agree with matvec()/matvecNaive() to roundoff (~1e-13 rel),
// not bit-for-bit. Callers that need bit-identity with the naive reference
// use the planned per-element engine in matvec.hpp.
//
// Determinism contract: every engine here accumulates into a rank's output
// in an order fixed by the plan alone — matvecUniform runs a rank's batches
// in order and then its hanging elements, with ranks in parallel through
// sim::forEachRank — so for a fixed kernel tier results are bitwise
// identical for any thread count.
#pragma once

#include <array>
#include <vector>

#include "fem/layout.hpp"
#include "fem/matvec.hpp"
#include "fem/simd.hpp"
#include "mesh/mesh.hpp"
#include "support/thread_pool.hpp"

namespace pt::fem {

/// Per-level cache of the dense elemental operator A_e = B^T D B for a
/// mass/stiffness combination. Levels are filled on demand (sequentially,
/// before any threaded use) and then shared read-only across partitions.
template <int DIM>
class LevelOperatorCache {
 public:
  LevelOperatorCache(Real massCoef, Real stiffCoef)
      : massCoef_(massCoef), stiffCoef_(stiffCoef) {}

  /// Assembles (if needed) and returns A_e for elements at `level`. Not
  /// thread-safe; call from the coordinating thread only.
  const ElemMat<DIM>& at(Level level) {
    if (!built_[level]) {
      const Real h =
          static_cast<Real>(1u << (kMaxLevel - level)) / kMaxCoord;
      ops_[level] = {};
      assembleGemmOperator<DIM>(h, massCoef_, stiffCoef_, ops_[level].data());
      built_[level] = true;
    }
    return ops_[level];
  }

 private:
  Real massCoef_, stiffCoef_;
  std::array<bool, kMaxLevel + 1> built_{};
  std::array<ElemMat<DIM>, kMaxLevel + 1> ops_{};
};

/// Batched MATVEC for the uniform-coefficient operator
///   y = (massCoef * M + stiffCoef * K) x      (applied per scalar dof)
/// — the operator family behind massMatvec, stiffnessMatvec, and the
/// Helmholtz-type solves. `x` must be ghost-consistent; `y` is overwritten
/// and ends consistent. See the header comment for the accuracy and
/// determinism contract relative to the per-element engine.
template <int DIM>
void matvecUniform(const Mesh<DIM>& mesh, const Field& x, Field& y, int ndof,
                   Real massCoef, Real stiffCoef, SimdIsa isa = simdIsa()) {
  constexpr int kN = kNodes<DIM>;
  sim::forEachRank(mesh.nRanks(), [&](int r, bool) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    const ElemPlan& plan = rm.plan;
    const std::vector<Real>& xr = x[r];
    std::vector<Real>& yr = y[r];
    yr.assign(rm.nNodes() * ndof, 0.0);

    // Assemble every needed A_e up front so the loops below only read the
    // cache.
    LevelOperatorCache<DIM> cache(massCoef, stiffCoef);
    std::array<const Real*, kMaxLevel + 1> opsByLevel{};
    for (const ElemPlanBatch& b : plan.batches)
      opsByLevel[b.level] = cache.at(b.level).data();
    for (std::uint32_t e : plan.hangingElems) {
      const Level lvl = rm.elems[e].level;
      opsByLevel[lvl] = cache.at(lvl).data();
    }
    const std::size_t panelCap =
        std::size_t(kN) * padCols(int(kMatvecBatch) * ndof);
    PanelBuf xbuf, ybuf;
    Real* X = xbuf.ensure(panelCap);
    Real* Y = ybuf.ensure(panelCap);

    for (const ElemPlanBatch& batch : plan.batches) {
      const int m = static_cast<int>(batch.end - batch.begin);
      const int cols = m * ndof;
      const int colsPad = padCols(cols);
      // Gather: zip corner values into the dof-major panel, column (e, d),
      // unit-stride through the transposed node map; pad columns zeroed.
      gatherPanelT(xr.data(), &plan.pureNodesT[std::size_t(batch.begin) * kN],
                   kN, m, ndof, colsPad, X);
      // Kernel: Y = A * X, one dense GEMM streaming across the panel at the
      // selected ISA tier (first rank-1 term stores, the rest accumulate —
      // no separate zero pass).
      panelGemm(isa, opsByLevel[batch.level], kN, X, Y, cols, colsPad);
      // Scatter: add the result panel back through the flat node indices,
      // in the engine's historical element-outer accumulation order.
      scatterAddPanel(Y, &plan.pureNodes[std::size_t(batch.begin) * kN], kN,
                      m, ndof, colsPad, yr.data());
    }

    // Hanging elements: the weighted gather/scatter (constraint
    // interpolation) stays per-element, but the A_e apply is batched
    // through the same panel GEMM as the pure path — consecutive
    // same-level runs of hangingElems zip into one panel and one GEMM
    // applies A_e to the whole run at the selected tier. Element order,
    // and hence the accumulation order into yr, is unchanged, and per
    // (element, dof) column the GEMM performs the historical GEMV's
    // multiply-add sequence.
    const std::size_t nh = plan.hangingElems.size();
    std::vector<Real> uLoc(std::size_t(kN) * ndof),
        rLoc(std::size_t(kN) * ndof);
    std::size_t i = 0;
    while (i < nh) {
      const Level lvl = rm.elems[plan.hangingElems[i]].level;
      std::size_t runEnd = i + 1;
      while (runEnd < nh && runEnd - i < kMatvecBatch &&
             rm.elems[plan.hangingElems[runEnd]].level == lvl)
        ++runEnd;
      const int m = static_cast<int>(runEnd - i);
      const int cols = m * ndof;
      const int colsPad = padCols(cols);
      for (int ei = 0; ei < m; ++ei) {
        gatherElem(rm, plan.hangingElems[i + ei], xr, ndof, uLoc.data());
        for (int j = 0; j < kN; ++j)
          for (int d = 0; d < ndof; ++d)
            X[std::size_t(j) * colsPad + std::size_t(ei) * ndof + d] =
                uLoc[std::size_t(j) * ndof + d];
      }
      for (int j = 0; j < kN; ++j)
        for (int c = cols; c < colsPad; ++c)
          X[std::size_t(j) * colsPad + c] = 0.0;
      panelGemm(isa, opsByLevel[lvl], kN, X, Y, cols, colsPad);
      for (int ei = 0; ei < m; ++ei) {
        for (int j = 0; j < kN; ++j)
          for (int d = 0; d < ndof; ++d)
            rLoc[std::size_t(j) * ndof + d] =
                Y[std::size_t(j) * colsPad + std::size_t(ei) * ndof + d];
        scatterAddElem(rm, plan.hangingElems[i + ei], rLoc.data(), ndof, yr);
      }
      i = runEnd;
    }

    mesh.comm().chargeWork(r, matvecWorkPerElem<DIM>(ndof) * rm.nElems());
  });
  mesh.accumulate(y, ndof);
}

namespace matvecdetail {

/// Gather + two GEMMs for batches [b0, b1): YM/YK hold the mass and
/// stiffness panel products at per-batch padded offsets panelOff[b] of one
/// shared buffer, so concurrent calls on disjoint batch ranges are
/// independent and the result is a pure function of the plan — no output
/// races, no private copies, no reduction. The two panel GEMMs replay, per
/// output value, exactly the operation sequence of the historical fused
/// M/K loop, so the scalar tier stays bitwise identical to it.
template <int DIM>
void computeCoefPanels(const RankMesh<DIM>& rm,
                       const std::array<const Real*, kMaxLevel + 1>& opsM,
                       const std::array<const Real*, kMaxLevel + 1>& opsK,
                       const std::vector<Real>& x, std::vector<Real>& YM,
                       std::vector<Real>& YK,
                       const std::vector<std::size_t>& panelOff, int ndof,
                       std::size_t b0, std::size_t b1, SimdIsa isa) {
  constexpr int kN = kNodes<DIM>;
  const ElemPlan& plan = rm.plan;
  PanelBuf xbuf;
  Real* X = xbuf.ensure(std::size_t(kN) * padCols(int(kMatvecBatch) * ndof));
  for (std::size_t b = b0; b < b1; ++b) {
    const ElemPlanBatch& batch = plan.batches[b];
    const int m = static_cast<int>(batch.end - batch.begin);
    const int cols = m * ndof;
    const int colsPad = padCols(cols);
    const std::size_t off = panelOff[b];
    gatherPanelT(x.data(), &plan.pureNodesT[std::size_t(batch.begin) * kN],
                 kN, m, ndof, colsPad, X);
    panelGemm(isa, opsM[batch.level], kN, X, &YM[off], cols, colsPad);
    panelGemm(isa, opsK[batch.level], kN, X, &YK[off], cols, colsPad);
  }
}

/// Padded per-batch offsets into the shared YM/YK panel buffers; the
/// returned vector has nBatches + 1 entries (last = total buffer size).
inline std::vector<std::size_t> coefPanelOffsets(const ElemPlan& plan, int kN,
                                                 int ndof) {
  std::vector<std::size_t> off(plan.batches.size() + 1, 0);
  for (std::size_t b = 0; b < plan.batches.size(); ++b) {
    const int m = static_cast<int>(plan.batches[b].end - plan.batches[b].begin);
    off[b + 1] = off[b] + std::size_t(kN) * padCols(m * ndof);
  }
  return off;
}

/// Serial coefficient-block scatter of every batch in ascending order,
/// mixing the mass and stiffness panel products through each element's
/// cM/cK blocks.
template <int DIM>
void coefScatterBatches(const RankMesh<DIM>& rm, const Real* cMr,
                        const Real* cKr, const std::vector<Real>& YM,
                        const std::vector<Real>& YK,
                        const std::vector<std::size_t>& panelOff, int ndof,
                        std::vector<Real>& yr) {
  constexpr int kN = kNodes<DIM>;
  const ElemPlan& plan = rm.plan;
  const int nd2 = ndof * ndof;
  for (std::size_t b = 0; b < plan.batches.size(); ++b) {
    const ElemPlanBatch& batch = plan.batches[b];
    const int m = static_cast<int>(batch.end - batch.begin);
    const int colsPad = padCols(m * ndof);
    const std::size_t off = panelOff[b];
    for (int ei = 0; ei < m; ++ei) {
      const std::uint32_t elem = plan.pureElems[batch.begin + ei];
      const Real* bM = &cMr[std::size_t(elem) * nd2];
      const Real* bK = &cKr[std::size_t(elem) * nd2];
      const std::uint32_t* nodes =
          &plan.pureNodes[std::size_t(batch.begin + ei) * kN];
      for (int j = 0; j < kN; ++j) {
        Real* dst = &yr[std::size_t(nodes[j]) * ndof];
        const Real* sM =
            &YM[off + std::size_t(j) * colsPad + std::size_t(ei) * ndof];
        const Real* sK =
            &YK[off + std::size_t(j) * colsPad + std::size_t(ei) * ndof];
        for (int a = 0; a < ndof; ++a) {
          Real acc = 0;
          for (int d = 0; d < ndof; ++d)
            acc += bM[a * ndof + d] * sM[d] + bK[a * ndof + d] * sK[d];
          dst[a] += acc;
        }
      }
    }
  }
}

/// Serial hanging-element sweep with the coefficient-block mixing: the
/// weighted gather/scatter stays per element, and same-level runs share
/// one panel and the two panel GEMMs.
template <int DIM>
void coefHangingSweep(const RankMesh<DIM>& rm,
                      const std::array<const Real*, kMaxLevel + 1>& opsM,
                      const std::array<const Real*, kMaxLevel + 1>& opsK,
                      const Real* cMr, const Real* cKr,
                      const std::vector<Real>& x, std::vector<Real>& yr,
                      int ndof, SimdIsa isa) {
  constexpr int kN = kNodes<DIM>;
  const ElemPlan& plan = rm.plan;
  const int nd2 = ndof * ndof;
  const std::size_t nh = plan.hangingElems.size();
  if (!nh) return;
  std::vector<Real> uLoc(std::size_t(kN) * ndof),
      rLoc(std::size_t(kN) * ndof);
  const std::size_t panelCap =
      std::size_t(kN) * padCols(int(kMatvecBatch) * ndof);
  PanelBuf xbuf, mbuf, kbuf;
  Real* X = xbuf.ensure(panelCap);
  Real* YMh = mbuf.ensure(panelCap);
  Real* YKh = kbuf.ensure(panelCap);
  std::size_t i = 0;
  while (i < nh) {
    const Level lvl = rm.elems[plan.hangingElems[i]].level;
    std::size_t runEnd = i + 1;
    while (runEnd < nh && runEnd - i < kMatvecBatch &&
           rm.elems[plan.hangingElems[runEnd]].level == lvl)
      ++runEnd;
    const int m = static_cast<int>(runEnd - i);
    const int cols = m * ndof;
    const int colsPad = padCols(cols);
    for (int ei = 0; ei < m; ++ei) {
      gatherElem(rm, plan.hangingElems[i + ei], x, ndof, uLoc.data());
      for (int j = 0; j < kN; ++j)
        for (int d = 0; d < ndof; ++d)
          X[std::size_t(j) * colsPad + std::size_t(ei) * ndof + d] =
              uLoc[std::size_t(j) * ndof + d];
    }
    for (int j = 0; j < kN; ++j)
      for (int c = cols; c < colsPad; ++c)
        X[std::size_t(j) * colsPad + c] = 0.0;
    panelGemm(isa, opsM[lvl], kN, X, YMh, cols, colsPad);
    panelGemm(isa, opsK[lvl], kN, X, YKh, cols, colsPad);
    for (int ei = 0; ei < m; ++ei) {
      const std::uint32_t e = plan.hangingElems[i + ei];
      const Real* bM = &cMr[std::size_t(e) * nd2];
      const Real* bK = &cKr[std::size_t(e) * nd2];
      for (int j = 0; j < kN; ++j) {
        const Real* sM =
            &YMh[std::size_t(j) * colsPad + std::size_t(ei) * ndof];
        const Real* sK =
            &YKh[std::size_t(j) * colsPad + std::size_t(ei) * ndof];
        for (int a = 0; a < ndof; ++a) {
          Real acc = 0;
          for (int d = 0; d < ndof; ++d)
            acc += bM[a * ndof + d] * sM[d] + bK[a * ndof + d] * sK[d];
          rLoc[std::size_t(j) * ndof + a] = acc;
        }
      }
      scatterAddElem(rm, e, rLoc.data(), ndof, yr);
    }
    i = runEnd;
  }
}

/// Per-rank reference mass and stiffness operators for every level the
/// rank's batches and hanging elements use. Not movable once built: opsM
/// and opsK point into the caches.
template <int DIM>
struct CoefLevelOps {
  LevelOperatorCache<DIM> cacheM{1.0, 0.0}, cacheK{0.0, 1.0};
  std::array<const Real*, kMaxLevel + 1> opsM{}, opsK{};

  void build(const RankMesh<DIM>& rm) {
    for (const ElemPlanBatch& b : rm.plan.batches) {
      opsM[b.level] = cacheM.at(b.level).data();
      opsK[b.level] = cacheK.at(b.level).data();
    }
    for (std::uint32_t e : rm.plan.hangingElems) {
      const Level lvl = rm.elems[e].level;
      opsM[lvl] = cacheM.at(lvl).data();
      opsK[lvl] = cacheK.at(lvl).data();
    }
  }
};

template <int DIM>
double coefWorkPerElem(int ndof) {
  return 2.0 * matvecWorkPerElem<DIM>(ndof) +
         2.0 * (ndof * ndof) * kNodes<DIM>;
}

}  // namespace matvecdetail

/// Batched MATVEC for per-element coefficient-block operators — the GMG
/// level-operator engine:
///
///   y(v, a) += sum_e sum_b  cM[e](a,b) * (M_h x_b)|_e(v)
///                         + cK[e](a,b) * (K_h x_b)|_e(v)
///
/// where M_h / K_h are the reference mass and stiffness actions at the
/// element's size (scales h^DIM and h^(DIM-2), matching applyMass /
/// applyStiffness), and cM / cK are per-element ndof x ndof row-major
/// blocks stored per rank as nElems * ndof * ndof reals. This covers the
/// CH approximate-Jacobian 2x2 blocks, the component-diagonal NS momentum
/// diagonal, and the variable-coefficient pressure Poisson operator.
///
/// Determinism contract (the header's): for a fixed kernel tier, results
/// are bitwise identical for ANY thread count — and the scalar tier is
/// bitwise identical to the historical (pre-SIMD) engine. The per-batch
/// panel products (gather + two GEMMs) carry no cross-batch dependencies
/// and run in parallel into per-batch slots of one pre-sized buffer; the
/// scatter then runs serially in ascending batch order, followed by the
/// serial hanging-element sweep, so the accumulation order into y is a
/// pure function of the plan.
///
/// The accumulate overlaps the interior work (accumulateOverlapped,
/// DESIGN.md §15).
template <int DIM>
void matvecCoefBlocks(const Mesh<DIM>& mesh, const Field& x, Field& y,
                      int ndof, const sim::PerRank<std::vector<Real>>& cM,
                      const sim::PerRank<std::vector<Real>>& cK,
                      SimdIsa isa = simdIsa()) {
  constexpr int kN = kNodes<DIM>;
  auto& pool = support::ThreadPool::instance();
  sim::forEachRank(mesh.nRanks(), [&](int r, bool innerThreads) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    const ElemPlan& plan = rm.plan;
    PT_CHECK(cM[r].size() == rm.nElems() * std::size_t(ndof * ndof));
    PT_CHECK(cK[r].size() == rm.nElems() * std::size_t(ndof * ndof));
    std::vector<Real>& yr = y[r];
    yr.assign(rm.nNodes() * ndof, 0.0);
    matvecdetail::CoefLevelOps<DIM> lops;
    lops.build(rm);

    // Phase 1: panel products, parallel over batches (shared read-only
    // inputs, disjoint per-batch padded output slots).
    const std::vector<std::size_t> panelOff =
        matvecdetail::coefPanelOffsets(plan, kN, ndof);
    std::vector<Real> YM(panelOff.back());
    std::vector<Real> YK(panelOff.back());
    auto panels = [&](std::size_t b0, std::size_t b1) {
      matvecdetail::computeCoefPanels(rm, lops.opsM, lops.opsK, x[r], YM, YK,
                                      panelOff, ndof, b0, b1, isa);
    };
    if (innerThreads && plan.batches.size() > 1 && pool.threads() > 1) {
      pool.parallelFor(plan.batches.size(),
                       [&](int, std::size_t b0, std::size_t b1) {
                         panels(b0, b1);
                       });
    } else {
      panels(0, plan.batches.size());
    }

    // Phase 2: serial scatter in ascending batch order with the
    // per-element coefficient-block mixing, then the serial hanging-element
    // sweep (weighted gather/scatter per element, A_e applies batched
    // through the same panel GEMMs).
    matvecdetail::coefScatterBatches<DIM>(rm, cM[r].data(), cK[r].data(), YM,
                                          YK, panelOff, ndof, yr);
    matvecdetail::coefHangingSweep<DIM>(rm, lops.opsM, lops.opsK,
                                        cM[r].data(), cK[r].data(), x[r], yr,
                                        ndof, isa);
  });
  accumulateOverlapped(mesh, y, ndof, matvecdetail::coefWorkPerElem<DIM>(ndof));
}

}  // namespace pt::fem
