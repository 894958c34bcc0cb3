// Split-phase communication (DESIGN.md §15): exchange clock-credit
// semantics, accumulate epoch edge cases, the overlapped MATVEC engines
// against independent references (bitwise where the reference shares the
// operation order, to roundoff where it does not), the boundary count the
// overlap charge rests on, and the async transfer epoch against per-field
// transfers.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "apps/fields.hpp"
#include "chns/solver.hpp"
#include "fem/matvec.hpp"
#include "fem/matvec_batched.hpp"
#include "intergrid/transfer.hpp"
#include "mesh/mesh.hpp"
#include "octree/balance.hpp"
#include "support/thread_pool.hpp"

namespace pt {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(int n) { support::ThreadPool::instance().setThreads(n); }
  ~ThreadGuard() { support::ThreadPool::instance().setThreads(1); }
};

/// A balanced adaptive tree refined around a spherical interface — its
/// level jumps guarantee hanging corners.
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
Field smoothInput(const Mesh<DIM>& mesh, int ndof) {
  Field x = mesh.makeField(ndof);
  fem::setByPosition<DIM>(mesh, x, ndof,
                          [ndof](const VecN<DIM>& pos, Real* out) {
    Real s = 0;
    for (int d = 0; d < DIM; ++d) s += (d + 1.0) * pos[d];
    for (int d = 0; d < ndof; ++d) out[d] = std::sin(3.0 * s + d) + 0.25 * d;
  });
  return x;
}

/// Helmholtz-type elemental kernel, dof-blocked. Engine contract: `out`
/// arrives zeroed and the kernel accumulates into it; applyMass and
/// applyStiffness likewise add into their output.
template <int DIM>
void helmholtzKernel(const Octant<DIM>& oct, const Real* in, Real* out,
                     int ndof) {
  constexpr int kC = kNumChildren<DIM>;
  Real tin[kC], tm[kC], tk[kC];
  for (int d = 0; d < ndof; ++d) {
    for (int c = 0; c < kC; ++c) {
      tin[c] = in[c * ndof + d];
      tm[c] = 0.0;
      tk[c] = 0.0;
    }
    fem::applyMass<DIM>(oct.physSize(), tin, tm);
    fem::applyStiffness<DIM>(oct.physSize(), tin, tk);
    for (int c = 0; c < kC; ++c)
      out[c * ndof + d] += tm[c] + (1.0 + 0.5 * d) * tk[c];
  }
}

void expectFieldsEq(const Field& a, const Field& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t r = 0; r < a.size(); ++r)
    EXPECT_EQ(a[r], b[r]) << what << " rank " << r;
}

// ---- Split-phase exchange clock semantics -----------------------------------

sim::SparseSends<Real> ringSends(int p, int n) {
  sim::SparseSends<Real> sends(p);
  for (int r = 0; r < p; ++r)
    sends[r].emplace_back((r + 1) % p, std::vector<Real>(n, Real(r)));
  return sends;
}

TEST(SplitPhaseComm, BlockingEqualsStartFinishBackToBack) {
  sim::Machine m;
  m.alpha = 1e-6;
  m.beta = 1e-9;
  m.computeRate = 1e9;
  const auto sends = ringSends(4, 16);

  sim::SimComm c1(4, m);
  c1.sparseExchange(sends);
  const double tBlocking = c1.time();

  sim::SimComm c2(4, m);
  auto h = c2.exchangeStart(sends);
  c2.exchangeFinish(h);
  EXPECT_DOUBLE_EQ(c2.time(), tBlocking);
  EXPECT_FALSE(h.open());
  // Both paths complete collectively exactly once.
  EXPECT_EQ(c1.stats().collectives, c2.stats().collectives);
}

TEST(SplitPhaseComm, ComputeChargedInFlightHidesUnderExchange) {
  sim::Machine m;
  m.alpha = 1e-6;
  m.beta = 1e-9;
  m.computeRate = 1e9;
  const int p = 4;
  const auto sends = ringSends(p, 16);
  // Ring of 16 doubles: alpha*(1 dest + 1 src + 2*log2(4)) + beta*256 B.
  const double cost = m.alpha * 6.0 + m.beta * 256.0;

  sim::SimComm comm(p, m);
  auto h1 = comm.exchangeStart(sends);
  for (int r = 0; r < p; ++r) comm.chargeWork(r, 3000.0);  // 3 us < cost
  comm.exchangeFinish(h1);
  EXPECT_DOUBLE_EQ(comm.time(), cost);  // fully hidden
  EXPECT_DOUBLE_EQ(comm.stats().overlapHidden, 3000.0 / m.computeRate);

  const double t1 = comm.time();
  auto h2 = comm.exchangeStart(sends);
  for (int r = 0; r < p; ++r) comm.chargeWork(r, 10000.0);  // 10 us > cost
  comm.exchangeFinish(h2);
  // Compute dominates: the exchange is free, its full cost was hidden.
  EXPECT_DOUBLE_EQ(comm.time(), t1 + 10000.0 / m.computeRate);
  EXPECT_DOUBLE_EQ(comm.stats().overlapHidden,
                   3000.0 / m.computeRate + cost);
  EXPECT_EQ(comm.stats().splitExchanges, 2);
}

TEST(SplitPhaseComm, PayloadsIdenticalToBlocking) {
  const auto sends = ringSends(3, 8);
  sim::SimComm c1(3, sim::Machine::loopback());
  sim::SimComm c2(3, sim::Machine::loopback());
  auto blocking = c1.sparseExchange(sends);
  auto h = c2.exchangeStart(sends);
  auto split = c2.exchangeFinish(h);
  ASSERT_EQ(blocking.size(), split.size());
  for (std::size_t r = 0; r < blocking.size(); ++r)
    EXPECT_EQ(blocking[r], split[r]);
}

// ---- Accumulate epochs ------------------------------------------------------

template <int DIM>
void checkAccumulateEpoch(const Mesh<DIM>& mesh, int ndof) {
  // Distinct deterministic per-entry values so interleaving mistakes show.
  Field a0 = smoothInput(mesh, ndof);
  Field a1 = a0;
  mesh.accumulate(a0, ndof);
  auto ha = mesh.accumulateStart(a1, ndof);
  mesh.accumulateFinish(ha, a1, ndof);
  expectFieldsEq(a0, a1, "accumulate split vs blocking");
}

TEST(GhostSplitPhase, SingleRankMeshNoNeighbors) {
  sim::SimComm comm(1, sim::Machine::loopback());
  auto mesh = makeMesh<2>(comm, 2, 4);
  checkAccumulateEpoch(mesh, 1);
  checkAccumulateEpoch(mesh, 3);
}

TEST(GhostSplitPhase, MultiRankInterleavedDofs) {
  for (int threads : {1, 4}) {
    ThreadGuard tg(threads);
    sim::SimComm comm(4, sim::Machine::loopback());
    auto mesh = makeMesh<2>(comm, 2, 5);
    checkAccumulateEpoch(mesh, 1);
    checkAccumulateEpoch(mesh, 3);
  }
}

TEST(GhostSplitPhase, EmptyRankHasZeroGhosts) {
  // More ranks than elements: the tail ranks own nothing and exchange
  // nothing; the split accumulate must pass through them untouched.
  sim::SimComm comm(5, sim::Machine::loopback());
  auto dt = DistTree<2>::fromGlobal(comm, uniformTree<2>(1));  // 4 elements
  auto mesh = Mesh<2>::build(comm, dt);
  bool sawEmpty = false;
  for (int r = 0; r < comm.size(); ++r)
    sawEmpty = sawEmpty || mesh.rank(r).nElems() == 0;
  EXPECT_TRUE(sawEmpty);
  checkAccumulateEpoch(mesh, 1);
  checkAccumulateEpoch(mesh, 2);
}

// ---- MATVEC engines against independent references --------------------------

template <int DIM>
void checkIndexedOverlap(int p, int ndof) {
  sim::SimComm comm(p, sim::Machine::loopback());
  auto mesh = makeMesh<DIM>(comm, 2, 5);
  Field x = smoothInput(mesh, ndof);
  auto kernel = [ndof](const Octant<DIM>& oct, const Real* in, Real* out) {
    helmholtzKernel<DIM>(oct, in, out, ndof);
  };

  // Reference: matvecNaive, a one-pass traversal with a blocking
  // accumulate.
  comm.resetClocks();
  const long collBefore = comm.stats().collectives;
  Field y0 = mesh.makeField(ndof);
  fem::matvecNaive<DIM>(mesh, x, y0, ndof, kernel);
  const double tRef = comm.time();
  const long collRef = comm.stats().collectives - collBefore;

  comm.resetClocks();
  const long collMid = comm.stats().collectives;
  const double hiddenBefore = comm.stats().overlapHidden;
  Field y1 = mesh.makeField(ndof);
  fem::matvec<DIM>(mesh, x, y1, ndof, kernel);
  const double tEngine = comm.time();
  const long collEngine = comm.stats().collectives - collMid;

  expectFieldsEq(y0, y1, "matvecIndexed vs matvecNaive");
  EXPECT_LE(tEngine, tRef * (1.0 + 1e-12));
  // Same number of collective completions either way (split accumulate =
  // finish + ghostRead, blocking = exchange + ghostRead).
  EXPECT_EQ(collEngine, collRef);
  if (p > 1) {
    EXPECT_GT(comm.stats().overlapHidden, hiddenBefore);
  }
}

TEST(MatvecOverlap, IndexedBitwiseAcrossThreads2D) {
  for (int threads : {1, 4}) {
    ThreadGuard tg(threads);
    checkIndexedOverlap<2>(4, 1);
    checkIndexedOverlap<2>(4, 3);
  }
}

TEST(MatvecOverlap, IndexedBitwise3DAndSingleRank) {
  checkIndexedOverlap<3>(3, 1);
  checkIndexedOverlap<2>(1, 2);  // p=1: no boundary, nothing to hide
}

/// Independent per-element reference for matvecCoefBlocks: out(i, a) +=
/// sum_b cM[e](a,b) (h^DIM M_ref x_b)(i) + cK[e](a,b) (h^(DIM-2) K_ref x_b)(i)
/// over the closed-form reference matrices, run through matvecIndexed. It
/// shares no code with the batched engine (no level cache, no panel GEMM,
/// no hanging sweep), so it agrees to roundoff, not bitwise.
template <int DIM>
void coefBlocksReference(const Mesh<DIM>& mesh, const Field& x, Field& y,
                         int ndof, const sim::PerRank<std::vector<Real>>& cM,
                         const sim::PerRank<std::vector<Real>>& cK) {
  constexpr int kN = fem::kNodes<DIM>;
  fem::matvecIndexed<DIM>(
      mesh, x, y, ndof,
      [&](int r, std::size_t e, const Octant<DIM>& oct, const Real* in,
          Real* out) {
        const Real h = oct.physSize();
        Real sM = 1.0;
        for (int d = 0; d < DIM; ++d) sM *= h;
        const Real sK = (DIM == 2) ? 1.0 : h;
        const auto& mref = fem::refMass<DIM>();
        const auto& kref = fem::refStiffness<DIM>();
        const Real* bM = &cM[r][e * std::size_t(ndof * ndof)];
        const Real* bK = &cK[r][e * std::size_t(ndof * ndof)];
        for (int i = 0; i < kN; ++i)
          for (int b = 0; b < ndof; ++b) {
            Real mx = 0, kx = 0;
            for (int j = 0; j < kN; ++j) {
              mx += mref[i * kN + j] * in[j * ndof + b];
              kx += kref[i * kN + j] * in[j * ndof + b];
            }
            for (int a = 0; a < ndof; ++a)
              out[i * ndof + a] += bM[a * ndof + b] * sM * mx +
                                   bK[a * ndof + b] * sK * kx;
          }
      });
}

template <int DIM>
void checkCoefBlocksOverlap(int p, int ndof) {
  sim::SimComm comm(p, sim::Machine::loopback());
  auto mesh = makeMesh<DIM>(comm, 2, 5);
  const int nd2 = ndof * ndof;
  std::size_t hanging = 0;
  sim::PerRank<std::vector<Real>> cM(comm.size()), cK(comm.size());
  std::mt19937 gen(23);
  std::uniform_real_distribution<Real> dist(0.1, 1.0);
  for (int r = 0; r < comm.size(); ++r) {
    hanging += mesh.rank(r).plan.nHanging();
    cM[r].resize(mesh.rank(r).nElems() * std::size_t(nd2));
    cK[r].resize(mesh.rank(r).nElems() * std::size_t(nd2));
    for (Real& v : cM[r]) v = dist(gen);
    for (Real& v : cK[r]) v = dist(gen);
  }
  ASSERT_GT(hanging, 0u) << "the mesh must exercise the hanging sweep";
  Field x = smoothInput(mesh, ndof);

  Field yRef = mesh.makeField(ndof);
  coefBlocksReference<DIM>(mesh, x, yRef, ndof, cM, cK);

  // The blocking schedule of the engine's work: every rank's whole loop,
  // then the accumulate.
  comm.resetClocks();
  const double perElem = fem::matvecdetail::coefWorkPerElem<DIM>(ndof);
  for (int r = 0; r < comm.size(); ++r)
    comm.chargeWork(r, perElem * mesh.rank(r).nElems());
  Field scratch = mesh.makeField(ndof);
  mesh.accumulate(scratch, ndof);
  const double tBlocking = comm.time();

  Field y1;
  for (int threads : {1, 4}) {
    ThreadGuard tg(threads);
    comm.resetClocks();
    const double hiddenBefore = comm.stats().overlapHidden;
    Field y = mesh.makeField(ndof);
    fem::matvecCoefBlocks<DIM>(mesh, x, y, ndof, cM, cK);
    EXPECT_LE(comm.time(), tBlocking * (1.0 + 1e-12)) << threads;
    if (p > 1) {
      EXPECT_GT(comm.stats().overlapHidden, hiddenBefore) << threads;
    }
    if (threads == 1) {
      y1 = y;
      Real scale = 0, err = 0;
      for (int r = 0; r < comm.size(); ++r)
        for (std::size_t i = 0; i < y[r].size(); ++i) {
          scale = std::max(scale, std::abs(yRef[r][i]));
          err = std::max(err, std::abs(y[r][i] - yRef[r][i]));
        }
      ASSERT_GT(scale, 0.0);
      EXPECT_LE(err, 1e-12 * scale)
          << "matvecCoefBlocks vs per-element reference, p=" << p
          << " ndof=" << ndof;
    } else {
      expectFieldsEq(y1, y, "matvecCoefBlocks 1 vs 4 threads");
    }
  }
}

TEST(MatvecOverlap, CoefBlocksBitwiseAcrossThreads) {
  for (int p : {1, 3, 4})
    for (int ndof : {1, 2}) checkCoefBlocksOverlap<2>(p, ndof);
  checkCoefBlocksOverlap<3>(3, 1);
  checkCoefBlocksOverlap<3>(3, 2);
}

/// Elements with a corner support that another rank also holds, counted
/// from the sharer tables alone.
template <int DIM>
std::size_t elemsTouchingSharedNodes(const RankMesh<DIM>& rm) {
  constexpr int kC = kNumChildren<DIM>;
  std::size_t n = 0;
  for (std::size_t e = 0; e < rm.nElems(); ++e) {
    bool shared = false;
    for (std::uint32_t s = rm.cornerOffset[e * kC];
         s < rm.cornerOffset[(e + 1) * kC]; ++s)
      shared = shared || rm.nodeSharers[rm.supports[s].node].size() > 1;
    if (shared) ++n;
  }
  return n;
}

TEST(MatvecOverlap, BoundaryPlanInvariants) {
  // The overlap charge credits interior work against the exchange; its
  // only state is the plan's boundary count.
  sim::SimComm comm(4, sim::Machine::loopback());
  auto mesh = makeMesh<2>(comm, 2, 5);
  std::size_t hanging = 0;
  for (int r = 0; r < comm.size(); ++r) {
    const RankMesh<2>& rm = mesh.rank(r);
    hanging += rm.plan.nHanging();
    const std::size_t nb = elemsTouchingSharedNodes(rm);
    EXPECT_EQ(rm.plan.nBoundaryElems, nb) << "rank " << r;
    // A 4-way partition of a connected mesh has both classes on each rank.
    EXPECT_GT(nb, 0u) << "rank " << r;
    EXPECT_LT(nb, rm.nElems()) << "rank " << r;
  }
  EXPECT_GT(hanging, 0u);

  sim::SimComm one(1, sim::Machine::loopback());
  auto single = makeMesh<2>(one, 2, 5);
  EXPECT_EQ(elemsTouchingSharedNodes(single.rank(0)), 0u);
  EXPECT_EQ(single.rank(0).plan.nBoundaryElems, 0u);
}

// ---- Async transfer epoch ---------------------------------------------------

TEST(TransferOverlap, NodalManyMatchesSequential) {
  sim::SimComm c1(3, sim::Machine::loopback());
  sim::SimComm c2(3, sim::Machine::loopback());
  auto oldDt1 = DistTree<2>::fromGlobal(c1, interfaceTree<2>(3, 5));
  auto oldM1 = Mesh<2>::build(c1, oldDt1);
  auto newDt1 = DistTree<2>::fromGlobal(c1, interfaceTree<2>(4, 6));
  auto newM1 = Mesh<2>::build(c1, newDt1);
  auto oldDt2 = DistTree<2>::fromGlobal(c2, interfaceTree<2>(3, 5));
  auto oldM2 = Mesh<2>::build(c2, oldDt2);
  auto newDt2 = DistTree<2>::fromGlobal(c2, interfaceTree<2>(4, 6));
  auto newM2 = Mesh<2>::build(c2, newDt2);

  Field a1 = smoothInput(oldM1, 1), b1 = smoothInput(oldM1, 2);
  Field a2 = smoothInput(oldM2, 1), b2 = smoothInput(oldM2, 2);

  for (bool useTables : {false, true}) {
    intergrid::TransferTables<2> t1, t2;
    if (useTables) {
      t1 = intergrid::gatherTransferTables(oldDt1);
      t2 = intergrid::gatherTransferTables(oldDt2);
    }
    const long coll1Before = c1.stats().collectives;
    Field sa = intergrid::transferNodal(oldM1, a1, newM1, 1,
                                        useTables ? &t1 : nullptr);
    Field sb = intergrid::transferNodal(oldM1, b1, newM1, 2,
                                        useTables ? &t1 : nullptr);
    const long coll1 = c1.stats().collectives - coll1Before;

    const long coll2Before = c2.stats().collectives;
    auto many = intergrid::transferNodalMany<2>(
        oldM2, {{&a2, 1}, {&b2, 2}}, newM2, useTables ? &t2 : nullptr);
    const long coll2 = c2.stats().collectives - coll2Before;
    ASSERT_EQ(many.size(), 2u);
    expectFieldsEq(sa, many[0], "transferNodalMany field a");
    expectFieldsEq(sb, many[1], "transferNodalMany field b");
    // The async epoch must not change the collective count: 2 exchanges
    // per field (+1 allgather per field without tables).
    EXPECT_EQ(coll2, coll1);

    // An empty field list transfers nothing and costs nothing.
    const long collEmptyBefore = c2.stats().collectives;
    const double tEmptyBefore = c2.time();
    auto none = intergrid::transferNodalMany<2>(oldM2, {}, newM2,
                                                useTables ? &t2 : nullptr);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(c2.stats().collectives, collEmptyBefore);
    EXPECT_EQ(c2.time(), tEmptyBefore);
  }
}

// ---- Solver histories across thread counts ---------------------------------

template <int DIM>
chns::ChnsSolver<DIM> makeDropSolver(sim::SimComm& comm) {
  chns::ChnsOptions<DIM> opt;
  opt.params.Cn = 0.03;
  opt.dt = 1e-3;
  opt.blocksPerStep = 1;
  opt.remeshEvery = 1;
  opt.coarseLevel = 3;
  opt.interfaceLevel = 5;
  opt.featureLevel = 5;
  opt.referenceLevel = 5;
  auto tree = DistTree<DIM>::fromGlobal(comm, uniformTree<DIM>(4));
  chns::ChnsSolver<DIM> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<DIM>& x) {
    return apps::dropPhi<DIM>(x, VecN<DIM>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });
  return s;
}

TEST(SolverOverlap, ThreadedOverlapMatchesSerial) {
  sim::SimComm c1(2, sim::Machine::loopback());
  auto serial = makeDropSolver<2>(c1);
  serial.step();
  serial.step();

  sim::SimComm c2(2, sim::Machine::loopback());
  ThreadGuard tg(4);
  auto threaded = makeDropSolver<2>(c2);
  threaded.step();
  threaded.step();

  EXPECT_EQ(serial.lastChNewton_.totalLinearIterations,
            threaded.lastChNewton_.totalLinearIterations);
  for (int r = 0; r < serial.mesh().nRanks(); ++r) {
    EXPECT_EQ(serial.tree().localOf(r), threaded.tree().localOf(r));
    EXPECT_EQ(serial.phi()[r], threaded.phi()[r]);
    EXPECT_EQ(serial.velocity()[r], threaded.velocity()[r]);
  }
}

}  // namespace
}  // namespace pt
