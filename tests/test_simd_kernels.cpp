// Kernel-variant equivalence tests for the SIMD microkernels behind the
// batched MATVEC engine (fem/simd.hpp, DESIGN.md §8): tier agreement to
// roundoff on randomized adaptive meshes (hanging nodes, tail batches,
// ndof 1..5), bitwise contracts (scalar tier vs the historical operation
// order, fixed-tier determinism across thread counts), misaligned panels,
// and the PT_SIMD runtime-dispatch override.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <random>
#include <vector>

#include "fem/matvec.hpp"
#include "fem/matvec_batched.hpp"
#include "fem/simd.hpp"
#include "mesh/mesh.hpp"
#include "octree/balance.hpp"
#include "support/buildinfo.hpp"
#include "support/thread_pool.hpp"

namespace pt {
namespace {

/// Balanced adaptive tree refined around a spherical interface — level
/// jumps guarantee hanging corners, and batch runs of non-multiple-of-32
/// length guarantee tail batches.
template <int DIM>
OctList<DIM> interfaceTree(Level coarse, Level fine) {
  OctList<DIM> tree;
  buildTree<DIM>(
      Octant<DIM>::root(),
      [=](const Octant<DIM>& o) {
        auto c = o.centerCoords();
        Real r2 = 0;
        for (int d = 0; d < DIM; ++d) r2 += (c[d] - 0.5) * (c[d] - 0.5);
        const Real dist = std::abs(std::sqrt(r2) - 0.3);
        return dist < 2.0 * o.physSize() ? fine : coarse;
      },
      tree);
  return balanceTree(tree);
}

template <int DIM>
Mesh<DIM> makeMesh(sim::SimComm& comm, Level coarse, Level fine) {
  auto dt = DistTree<DIM>::fromGlobal(comm, interfaceTree<DIM>(coarse, fine));
  return Mesh<DIM>::build(comm, dt);
}

template <int DIM>
Field randomInput(const Mesh<DIM>& mesh, int ndof, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<Real> dist(-1.0, 1.0);
  Field x = mesh.makeField(ndof);
  // Random but ghost-consistent: a pure function of the global node key.
  fem::setByPosition<DIM>(mesh, x, ndof,
                          [ndof](const VecN<DIM>& pos, Real* out) {
                            Real s = 0;
                            for (int d = 0; d < DIM; ++d)
                              s += (127.1 + 184.6 * d) * pos[d];
                            for (int d = 0; d < ndof; ++d) {
                              const Real h =
                                  std::sin(s + 0.7 * d) * 43758.5453;
                              out[d] = h - std::floor(h) - 0.5;
                            }
                          });
  (void)gen;
  (void)dist;
  return x;
}

Real maxAbs(const Field& f) {
  Real m = 0;
  for (const auto& v : f)
    for (Real x : v) m = std::max(m, std::abs(x));
  return m;
}

Real maxDiff(const Field& a, const Field& b) {
  Real m = 0;
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].size(), b[r].size());
    for (std::size_t i = 0; i < a[r].size(); ++i)
      m = std::max(m, std::abs(a[r][i] - b[r][i]));
  }
  return m;
}

/// Tiers available on this machine (always includes scalar).
std::vector<fem::SimdIsa> availableTiers() {
  std::vector<fem::SimdIsa> tiers{fem::SimdIsa::kScalar};
  const int detected = support::simdTier();
  if (detected >= 1) tiers.push_back(fem::SimdIsa::kAvx2);
  if (detected >= 2) tiers.push_back(fem::SimdIsa::kAvx512);
  return tiers;
}

// ---- Runtime dispatch (PT_SIMD override) ------------------------------------

TEST(SimdDispatch, EnvOverrideClampsDownOnly) {
  const int detected = [] {
    unsetenv("PT_SIMD");
    support::simdRefresh();
    return support::simdTier();
  }();

  setenv("PT_SIMD", "scalar", 1);
  support::simdRefresh();
  EXPECT_EQ(support::simdTier(), 0);
  EXPECT_EQ(fem::simdIsa(), fem::SimdIsa::kScalar);
  EXPECT_STREQ(support::simdIsaName(), "scalar");

  // Requesting a tier at or above detection keeps detection (never up).
  setenv("PT_SIMD", "avx512", 1);
  support::simdRefresh();
  EXPECT_EQ(support::simdTier(), detected <= 2 ? detected : 2);

  // Unknown values keep runtime detection.
  setenv("PT_SIMD", "neon", 1);
  support::simdRefresh();
  EXPECT_EQ(support::simdTier(), detected);

  unsetenv("PT_SIMD");
  support::simdRefresh();
  EXPECT_EQ(support::simdTier(), detected);
}

// ---- Panel GEMM microkernel -------------------------------------------------

/// Scalar tier reproduces the historical operation order bit-for-bit:
/// per output row, the first rank-1 term stores and the rest accumulate.
TEST(SimdKernels, PanelGemmScalarBitwiseHistorical) {
  constexpr int kN = 8;
  const int cols = 37;  // deliberately not a multiple of kPanelPad
  const int colsPad = fem::padCols(cols);
  std::mt19937 gen(42);
  std::uniform_real_distribution<Real> dist(-1.0, 1.0);
  std::vector<Real> A(kN * kN);
  for (Real& v : A) v = dist(gen);
  fem::PanelBuf xb, yb;
  Real* X = xb.ensure(std::size_t(kN) * colsPad);
  Real* Y = yb.ensure(std::size_t(kN) * colsPad);
  for (int i = 0; i < kN * colsPad; ++i) X[i] = dist(gen);

  std::vector<Real> ref(std::size_t(kN) * colsPad, 0.0);
  for (int i = 0; i < kN; ++i) {
    for (int c = 0; c < cols; ++c) ref[i * colsPad + c] = A[i * kN] * X[c];
    for (int j = 1; j < kN; ++j)
      for (int c = 0; c < cols; ++c)
        ref[i * colsPad + c] += A[i * kN + j] * X[j * colsPad + c];
  }
  fem::panelGemm(fem::SimdIsa::kScalar, A.data(), kN, X, Y, cols, colsPad);
  for (int i = 0; i < kN; ++i)
    for (int c = 0; c < cols; ++c)
      EXPECT_EQ(Y[i * colsPad + c], ref[i * colsPad + c]);
}

/// Vector tiers agree with scalar to roundoff, including on panels whose
/// base pointer is deliberately knocked off the 64-byte allocation
/// alignment (the kernels use unaligned loads throughout).
TEST(SimdKernels, PanelGemmTiersAgreeAndTolerateMisalignment) {
  for (int kN : {4, 8, 9, 27}) {  // 2D/3D corners + p=2 tensor sizes
    const int cols = 37;
    const int colsPad = fem::padCols(cols);
    std::mt19937 gen(7 + kN);
    std::uniform_real_distribution<Real> dist(-1.0, 1.0);
    std::vector<Real> A(std::size_t(kN) * kN);
    for (Real& v : A) v = dist(gen);
    fem::PanelBuf xb, yb, yb2, yb3;
    // One extra Real so X + 1 stays in bounds when testing misalignment.
    Real* X = xb.ensure(std::size_t(kN) * colsPad + 1);
    Real* Y = yb.ensure(std::size_t(kN) * colsPad + 1);
    Real* Y2 = yb2.ensure(std::size_t(kN) * colsPad + 1);
    Real* Ym = yb3.ensure(std::size_t(kN) * colsPad + 1);
    for (int i = 0; i < kN * colsPad + 1; ++i) X[i] = dist(gen);

    fem::panelGemm(fem::SimdIsa::kScalar, A.data(), kN, X, Y, cols, colsPad);
    // Scalar baseline on the misaligned input view, kept separate from Y.
    fem::panelGemm(fem::SimdIsa::kScalar, A.data(), kN, X + 1, Ym, cols,
                   colsPad);
    for (fem::SimdIsa isa : availableTiers()) {
      if (isa == fem::SimdIsa::kScalar) continue;
      // Aligned panels.
      fem::panelGemm(isa, A.data(), kN, X, Y2, cols, colsPad);
      Real scale = 1, diff = 0;
      for (int i = 0; i < kN; ++i)
        for (int c = 0; c < cols; ++c) {
          scale = std::max(scale, std::abs(Y[i * colsPad + c]));
          diff = std::max(diff,
                          std::abs(Y2[i * colsPad + c] - Y[i * colsPad + c]));
        }
      EXPECT_LE(diff / scale, 1e-13) << "kN=" << kN << " aligned";
      // Misaligned base pointers (offset by one Real = 8 bytes).
      fem::panelGemm(isa, A.data(), kN, X + 1, Y2 + 1, cols, colsPad);
      diff = 0;
      for (int i = 0; i < kN; ++i)
        for (int c = 0; c < cols; ++c)
          diff = std::max(
              diff, std::abs((Y2 + 1)[i * colsPad + c] - Ym[i * colsPad + c]));
      EXPECT_LE(diff / scale, 1e-13) << "kN=" << kN << " misaligned";
    }
  }
}

// ---- Gather / scatter -------------------------------------------------------

TEST(SimdKernels, GatherScatterRoundTrip) {
  constexpr int kN = 8;
  for (int ndof : {1, 2, 3, 4, 5, 7}) {  // 7 exercises the generic path
    const int m = 13;  // tail-batch-sized
    const int cols = m * ndof;
    const int colsPad = fem::padCols(cols);
    std::mt19937 gen(100 + ndof);
    std::uniform_real_distribution<Real> dist(-1.0, 1.0);
    const std::size_t nNodes = 40;
    std::vector<Real> x(nNodes * ndof);
    for (Real& v : x) v = dist(gen);
    std::uniform_int_distribution<std::uint32_t> node(0, nNodes - 1);
    std::vector<std::uint32_t> nodes(std::size_t(m) * kN);
    for (auto& n : nodes) n = node(gen);
    std::vector<std::uint32_t> nodesT(nodes.size());
    for (int ei = 0; ei < m; ++ei)
      for (int j = 0; j < kN; ++j)
        nodesT[std::size_t(j) * m + ei] = nodes[std::size_t(ei) * kN + j];

    fem::PanelBuf xb;
    Real* X = xb.ensure(std::size_t(kN) * colsPad);
    for (std::size_t i = 0; i < std::size_t(kN) * colsPad; ++i)
      X[i] = 99.0;  // poison: gather must overwrite live cols, zero pads
    fem::gatherPanelT(x.data(), nodesT.data(), kN, m, ndof, colsPad, X);
    for (int j = 0; j < kN; ++j) {
      for (int ei = 0; ei < m; ++ei)
        for (int d = 0; d < ndof; ++d)
          EXPECT_EQ(X[std::size_t(j) * colsPad + ei * ndof + d],
                    x[std::size_t(nodes[ei * kN + j]) * ndof + d]);
      for (int c = cols; c < colsPad; ++c)
        EXPECT_EQ(X[std::size_t(j) * colsPad + c], 0.0);
    }

    // Scatter accumulates in the historical element-outer order — replay
    // it directly and demand bitwise equality (shared nodes accumulate).
    std::vector<Real> y(nNodes * ndof, 0.25), ref(nNodes * ndof, 0.25);
    fem::scatterAddPanel(X, nodes.data(), kN, m, ndof, colsPad, y.data());
    for (int ei = 0; ei < m; ++ei)
      for (int j = 0; j < kN; ++j)
        for (int d = 0; d < ndof; ++d)
          ref[std::size_t(nodes[ei * kN + j]) * ndof + d] +=
              X[std::size_t(j) * colsPad + ei * ndof + d];
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], ref[i]);
  }
}

// ---- Engine-level tier equivalence ------------------------------------------

template <int DIM>
void tierEquivalenceUniform(int p, int ndof) {
  sim::SimComm comm(p, sim::Machine::loopback());
  auto mesh = makeMesh<DIM>(comm, DIM == 3 ? 1 : 2, 4);
  Field x = randomInput(mesh, ndof, 17);
  Field yS = mesh.makeField(ndof);
  fem::matvecUniform<DIM>(mesh, x, yS, ndof, 1.3, 0.7,
                          fem::SimdIsa::kScalar);
  const Real scale = std::max(Real(1), maxAbs(yS));
  for (fem::SimdIsa isa : availableTiers()) {
    if (isa == fem::SimdIsa::kScalar) continue;
    Field yV = mesh.makeField(ndof);
    fem::matvecUniform<DIM>(mesh, x, yV, ndof, 1.3, 0.7, isa);
    EXPECT_LE(maxDiff(yS, yV) / scale, 1e-13)
        << "DIM=" << DIM << " ndof=" << ndof
        << " isa=" << fem::simdIsaName(isa);
  }
}

TEST(SimdKernels, MatvecUniformTierEquivalence2D) {
  for (int ndof : {1, 2, 4, 5}) tierEquivalenceUniform<2>(2, ndof);
}

TEST(SimdKernels, MatvecUniformTierEquivalence3D) {
  for (int ndof : {1, 2, 4, 5}) tierEquivalenceUniform<3>(3, ndof);
}

template <int DIM>
void tierEquivalenceCoefBlocks(int p, int ndof) {
  sim::SimComm comm(p, sim::Machine::loopback());
  auto mesh = makeMesh<DIM>(comm, DIM == 3 ? 1 : 2, 4);
  const int nd2 = ndof * ndof;
  sim::PerRank<std::vector<Real>> cM(comm.size()), cK(comm.size());
  std::mt19937 gen(23);
  std::uniform_real_distribution<Real> dist(0.1, 1.0);
  for (int r = 0; r < comm.size(); ++r) {
    cM[r].resize(mesh.rank(r).nElems() * std::size_t(nd2));
    cK[r].resize(mesh.rank(r).nElems() * std::size_t(nd2));
    for (Real& v : cM[r]) v = dist(gen);
    for (Real& v : cK[r]) v = dist(gen);
  }
  Field x = randomInput(mesh, ndof, 31);
  Field yS = mesh.makeField(ndof);
  fem::matvecCoefBlocks<DIM>(mesh, x, yS, ndof, cM, cK,
                             fem::SimdIsa::kScalar);
  const Real scale = std::max(Real(1), maxAbs(yS));
  for (fem::SimdIsa isa : availableTiers()) {
    if (isa == fem::SimdIsa::kScalar) continue;
    Field yV = mesh.makeField(ndof);
    fem::matvecCoefBlocks<DIM>(mesh, x, yV, ndof, cM, cK, isa);
    EXPECT_LE(maxDiff(yS, yV) / scale, 1e-13)
        << "DIM=" << DIM << " ndof=" << ndof
        << " isa=" << fem::simdIsaName(isa);
  }

  // Fixed-tier determinism: bitwise identical across thread counts (the
  // coef-blocks engine's strongest contract) and across repeat runs.
  auto& pool = support::ThreadPool::instance();
  for (fem::SimdIsa isa : availableTiers()) {
    Field y1 = mesh.makeField(ndof), y4 = mesh.makeField(ndof);
    pool.setThreads(1);
    fem::matvecCoefBlocks<DIM>(mesh, x, y1, ndof, cM, cK, isa);
    pool.setThreads(4);
    fem::matvecCoefBlocks<DIM>(mesh, x, y4, ndof, cM, cK, isa);
    pool.setThreads(1);
    EXPECT_EQ(maxDiff(y1, y4), 0.0) << "isa=" << fem::simdIsaName(isa);
    Field y1b = mesh.makeField(ndof);
    fem::matvecCoefBlocks<DIM>(mesh, x, y1b, ndof, cM, cK, isa);
    EXPECT_EQ(maxDiff(y1, y1b), 0.0);
  }
}

TEST(SimdKernels, MatvecCoefBlocksTierEquivalenceAndDeterminism2D) {
  for (int ndof : {1, 2, 5}) tierEquivalenceCoefBlocks<2>(2, ndof);
}

TEST(SimdKernels, MatvecCoefBlocksTierEquivalenceAndDeterminism3D) {
  for (int ndof : {1, 2, 5}) tierEquivalenceCoefBlocks<3>(2, ndof);
}

/// On one rank sim::forEachRank has no ranks to spread over the pool, so
/// any thread-count dependence of matvecUniform would show here: it must
/// be bitwise identical at 1 and 4 threads, hanging sweep included.
TEST(SimdKernels, MatvecUniformBitwiseAcrossThreadsOnOneRank) {
  sim::SimComm comm(1, sim::Machine::loopback());
  auto mesh = makeMesh<3>(comm, 1, 4);
  ASSERT_GT(mesh.rank(0).plan.nHanging(), 0u);
  ASSERT_GT(mesh.rank(0).plan.batches.size(), 1u);
  auto& pool = support::ThreadPool::instance();
  for (int ndof : {1, 5}) {
    Field x = randomInput(mesh, ndof, 41);
    for (fem::SimdIsa isa : availableTiers()) {
      Field y1 = mesh.makeField(ndof), y4 = mesh.makeField(ndof);
      pool.setThreads(1);
      fem::matvecUniform<3>(mesh, x, y1, ndof, 1.3, 0.7, isa);
      pool.setThreads(4);
      fem::matvecUniform<3>(mesh, x, y4, ndof, 1.3, 0.7, isa);
      pool.setThreads(1);
      std::size_t differing = 0;
      for (std::size_t i = 0; i < y1[0].size(); ++i)
        differing += y1[0][i] != y4[0][i];
      EXPECT_EQ(differing, 0u)
          << "ndof=" << ndof << " isa=" << fem::simdIsaName(isa);
    }
  }
}

/// A tiny uniform mesh whose element count is far below kMatvecBatch: the
/// whole engine runs on tail batches, every tier.
TEST(SimdKernels, TailOnlyBatches) {
  sim::SimComm comm(1, sim::Machine::loopback());
  auto dt = DistTree<2>::fromGlobal(comm, uniformTree<2>(2));  // 16 elems
  auto mesh = Mesh<2>::build(comm, dt);
  const int ndof = 3;
  Field x = randomInput(mesh, ndof, 5);
  Field yS = mesh.makeField(ndof);
  fem::matvecUniform<2>(mesh, x, yS, ndof, 1.0, 1.0, fem::SimdIsa::kScalar);
  const Real scale = std::max(Real(1), maxAbs(yS));
  for (fem::SimdIsa isa : availableTiers()) {
    Field yV = mesh.makeField(ndof);
    fem::matvecUniform<2>(mesh, x, yV, ndof, 1.0, 1.0, isa);
    EXPECT_LE(maxDiff(yS, yV) / scale, 1e-13);
  }
}

/// The scalar tier is the equivalence baseline against the per-element
/// reference engine: the batched path reassociates, so agreement is to
/// roundoff — and this must hold for the DEFAULT tier too (whatever the
/// machine dispatches to).
TEST(SimdKernels, DefaultTierMatchesNaiveReference) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto mesh = makeMesh<3>(comm, 1, 3);
  const int ndof = 5;
  const Real mc = 1.3, sc = 0.7;
  Field x = randomInput(mesh, ndof, 11);
  Field yN = mesh.makeField(ndof);
  fem::matvecNaive<3>(
      mesh, x, yN, ndof, [&](const Octant<3>& oct, const Real* in, Real* out) {
        constexpr int kC = kNumChildren<3>;
        Real col[kC], res[kC];
        for (int d = 0; d < ndof; ++d) {
          for (int i = 0; i < kC; ++i) {
            col[i] = in[i * ndof + d];
            res[i] = 0.0;
          }
          fem::applyMass<3>(oct.physSize(), col, res);
          for (int i = 0; i < kC; ++i) out[i * ndof + d] += mc * res[i];
          for (int i = 0; i < kC; ++i) res[i] = 0.0;
          fem::applyStiffness<3>(oct.physSize(), col, res);
          for (int i = 0; i < kC; ++i) out[i * ndof + d] += sc * res[i];
        }
      });
  Field yB = mesh.makeField(ndof);
  fem::matvecUniform<3>(mesh, x, yB, ndof, mc, sc);  // default dispatch
  const Real scale = std::max(Real(1), maxAbs(yN));
  EXPECT_LE(maxDiff(yN, yB) / scale, 1e-13);
}

}  // namespace
}  // namespace pt
