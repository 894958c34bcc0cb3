// Remesh-pipeline fast path (DESIGN.md §11). The contracts under test are
// exact-equality contracts:
//   - the threaded / ping-pong local-Cahn passes are bitwise identical to
//     a full-copy serial reference loop (kept here as the oracle) at any
//     thread count;
//   - refine() provenance names the same source leaf locatePoint would find,
//     for every output of randomized multi-level refinements;
//   - no-op remeshes skip the mesh rebuild, transfers, and solver-cache
//     invalidation entirely (counter-asserted), the predicate allocates
//     nothing, and the exact tree comparison catches balance-undone cases;
//   - one routing-table gather serves a whole 5-field transfer epoch;
//   - the full adaptive stepper produces identical histories serial and
//     threaded, and a solver restored cold from a checkpoint before every
//     step replays the warm solver's history bitwise (no-op memo, pooled
//     workspaces, cached preconditioners and the GMG hierarchy carry no
//     state that changes results), including remeshEvery=1.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "amr/refine.hpp"
#include "amr/remesh.hpp"
#include "apps/fields.hpp"
#include "chns/checkpoint.hpp"
#include "chns/solver.hpp"
#include "intergrid/transfer.hpp"
#include "localcahn/identifier.hpp"
#include "mesh/mesh.hpp"
#include "octree/balance.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

// Global allocation counter for the zero-allocation predicate test.
// Counting is toggled only around the measured call on the main thread.
// new/delete below are a matched malloc/free pair; GCC's pairing heuristic
// can't see that through the replaced globals. The nothrow forms must be
// replaced too: std::stable_sort takes its buffer from the nothrow new and
// hands it back through the sized delete, which a sanitizer's own nothrow
// new would not match (alloc-dealloc-mismatch under ASan).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<long> g_allocs{0};

void* countedMalloc(std::size_t n) noexcept {
  if (g_countAllocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = countedMalloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return countedMalloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace pt {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(int n) { support::ThreadPool::instance().setThreads(n); }
  ~ThreadGuard() { support::ThreadPool::instance().setThreads(1); }
};

/// Multi-level adapted tree: uniform `base` refined to `fine` in a band
/// around the circle r = 0.25 centered at (0.5, 0.5[, 0.5]).
template <int DIM>
DistTree<DIM> adaptedDropTree(sim::SimComm& comm, Level base, Level fine) {
  auto dt = DistTree<DIM>::fromGlobal(comm, uniformTree<DIM>(base));
  sim::PerRank<std::vector<Level>> want(comm.size());
  for (int r = 0; r < comm.size(); ++r) {
    const auto& leaves = dt.localOf(r);
    want[r].resize(leaves.size());
    for (std::size_t e = 0; e < leaves.size(); ++e) {
      auto c = leaves[e].centerCoords();
      Real d2 = 0;
      for (int d = 0; d < DIM; ++d) d2 += (c[d] - 0.5) * (c[d] - 0.5);
      want[r][e] =
          std::abs(std::sqrt(d2) - 0.25) < 0.1 ? fine : base;
    }
  }
  return remesh(dt, want);
}

Field dropField(const Mesh<2>& mesh, Real eps) {
  Field phi = mesh.makeField(1);
  fem::setByPosition<2>(mesh, phi, 1, [&](const VecN<2>& x, Real* v) {
    v[0] = apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, eps);
  });
  return phi;
}

// ---- Threaded / ping-pong local-Cahn passes --------------------------------

/// Algorithm 2 as listed: a full `next = cur` copy and fresh written flags
/// per step, deciding and writing interleaved in one serial element loop.
/// The oracle the ping-pong + dirty-list sweep must reproduce bitwise.
template <int DIM>
Field referenceErodeDilate(const Mesh<DIM>& mesh, const Field& vec,
                           localcahn::Stage stage, int numSteps, Level bl) {
  constexpr int kC = kNumChildren<DIM>;
  const int p = mesh.nRanks();
  const Real val = (stage == localcahn::Stage::kErosion) ? -1.0 : +1.0;
  Field cur = vec;
  sim::PerRank<std::vector<int>> counter(p);
  for (int r = 0; r < p; ++r) counter[r].assign(mesh.rank(r).nElems(), 0);
  std::vector<Real> uLoc(kC), wLoc(kC, val);
  for (int step = 0; step < numSteps; ++step) {
    Field next = cur;
    sim::PerRank<std::vector<char>> written(p);
    for (int r = 0; r < p; ++r) {
      const RankMesh<DIM>& rm = mesh.rank(r);
      written[r].assign(rm.nNodes(), 0);
      for (std::size_t e = 0; e < rm.nElems(); ++e) {
        fem::gatherElem(rm, e, cur[r], 1, uLoc.data());
        if (!localcahn::elementHasInterface<DIM>(uLoc.data())) continue;
        if (counter[r][e] == bl - rm.elems[e].level) {
          fem::scatterInsertElem(rm, e, wLoc.data(), 1, next[r], written[r]);
          counter[r][e] = 0;
        } else {
          ++counter[r][e];
        }
      }
    }
    mesh.insertConsistent(next, written, 1);
    cur = std::move(next);
  }
  return cur;
}

TEST(LocalCahnFastPath, ErodeDilateBitwiseMatchesBaseline) {
  sim::SimComm comm(4, sim::Machine::loopback());
  auto tree = adaptedDropTree<2>(comm, 4, 6);
  auto mesh = Mesh<2>::build(comm, tree);
  Field phi = dropField(mesh, 0.02);
  Field bw = localcahn::threshold(mesh, phi, -0.8, true);

  for (auto stage : {localcahn::Stage::kErosion, localcahn::Stage::kDilation})
    for (int steps : {1, 2, 4}) {
      Field fast = localcahn::erodeDilate(mesh, bw, stage, steps, 6);
      Field base = referenceErodeDilate(mesh, bw, stage, steps, 6);
      for (int r = 0; r < comm.size(); ++r)
        EXPECT_EQ(fast[r], base[r])
            << "stage " << static_cast<int>(stage) << " steps " << steps
            << " rank " << r;
    }
}

TEST(LocalCahnFastPath, IdentifyBitwiseAcrossThreadCounts) {
  sim::SimComm comm(4, sim::Machine::loopback());
  auto tree = adaptedDropTree<2>(comm, 4, 6);
  auto mesh = Mesh<2>::build(comm, tree);
  Field phi = mesh.makeField(1);
  fem::setByPosition<2>(mesh, phi, 1, [&](const VecN<2>& x, Real* v) {
    v[0] = apps::lollipopPhi<2>(x, 0.01);
  });

  localcahn::IdentifyParams p;
  p.erodeSteps = 2;
  p.extraDilateSteps = 3;
  localcahn::ElemField serial;
  {
    ThreadGuard tg(1);
    serial = localcahn::identifyLocalCahn(mesh, phi, 6, p);
  }
  for (int threads : {2, 4}) {
    ThreadGuard tg(threads);
    auto cn = localcahn::identifyLocalCahn(mesh, phi, 6, p);
    for (int r = 0; r < comm.size(); ++r)
      EXPECT_EQ(cn[r], serial[r]) << "threads " << threads << " rank " << r;
  }
}

// ---- Refine provenance vs point location -----------------------------------

template <int DIM>
void checkProvenance(unsigned seed) {
  Rng rng(seed);
  // Random multi-level tree: a few rounds of randomized refinement.
  OctList<DIM> leaves{Octant<DIM>::root()};
  for (int round = 0; round < (DIM == 2 ? 3 : 2); ++round) {
    std::vector<Level> lv(leaves.size());
    for (std::size_t i = 0; i < leaves.size(); ++i)
      lv[i] = static_cast<Level>(leaves[i].level + rng.uniformInt(0, 2));
    leaves = refine(leaves, std::move(lv));
  }
  // Randomized multi-level want vector (refines and coarsen votes mixed).
  std::vector<Level> want(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const std::int64_t w = leaves[i].level + rng.uniformInt(-2, 2);
    want[i] = static_cast<Level>(std::max<std::int64_t>(0, w));
  }
  std::vector<Level> up(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i)
    up[i] = std::max(want[i], leaves[i].level);

  std::vector<std::uint32_t> srcOf;
  OctList<DIM> out = refine(leaves, up, &srcOf);
  ASSERT_EQ(srcOf.size(), out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::int64_t located = locatePoint(leaves, out[i].x);
    ASSERT_GE(located, 0);
    EXPECT_EQ(static_cast<std::int64_t>(srcOf[i]), located)
        << "output " << i << " seed " << seed;
    // The value the remesh vote consumes is identical either way.
    EXPECT_EQ(std::min(want[srcOf[i]], out[i].level),
              std::min(want[located], out[i].level));
  }
}

TEST(RefineProvenance, MatchesLocatePointOnRandomizedTrees2D) {
  for (unsigned seed : {1u, 7u, 42u, 1234u}) checkProvenance<2>(seed);
}

TEST(RefineProvenance, MatchesLocatePointOnRandomizedTrees3D) {
  for (unsigned seed : {3u, 99u}) checkProvenance<3>(seed);
}

// ---- No-op remesh detection -------------------------------------------------

TEST(NoopRemesh, PredicateAllocatesNothingAndDetectsChanges) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(3));
  sim::PerRank<std::vector<Level>> want(comm.size());
  for (int r = 0; r < comm.size(); ++r) {
    const auto& leaves = tree.localOf(r);
    want[r].resize(leaves.size());
    for (std::size_t e = 0; e < leaves.size(); ++e)
      want[r][e] = leaves[e].level;
  }

  g_allocs.store(0);
  g_countAllocs.store(true);
  const bool noop = remeshIsNoOp(tree, want);
  g_countAllocs.store(false);
  EXPECT_TRUE(noop);
  EXPECT_EQ(g_allocs.load(), 0) << "remeshIsNoOp must be allocation-free";

  // A refinement request anywhere defeats it.
  auto wantR = want;
  wantR[1][0] = static_cast<Level>(wantR[1][0] + 1);
  EXPECT_FALSE(remeshIsNoOp(tree, wantR));

  // A complete sibling family unanimously voting to coarsen defeats it
  // (the first kC leaves of a uniform tree share one parent).
  auto wantC = want;
  for (int c = 0; c < kNumChildren<2>; ++c)
    wantC[0][c] = static_cast<Level>(want[0][c] - 1);
  EXPECT_FALSE(remeshIsNoOp(tree, wantC));

  // An incomplete family voting to coarsen is correctly ignored.
  auto wantP = want;
  wantP[0][0] = static_cast<Level>(want[0][0] - 1);
  wantP[0][1] = static_cast<Level>(want[0][1] - 1);
  EXPECT_TRUE(remeshIsNoOp(tree, wantP));
}

TEST(NoopRemesh, ExactComparisonCatchesBalanceUndoneCoarsening) {
  // Level-4 block in a level-2 background: balance inserts a level-3 ring.
  // Voting the ring down to 2 while keeping the block at 4 passes consensus
  // coarsening but balance immediately restores the ring — the predicate
  // conservatively says "not a no-op", the exact tree comparison disagrees.
  sim::SimComm comm(1, sim::Machine::loopback());
  auto base = DistTree<2>::fromGlobal(comm, uniformTree<2>(2));
  sim::PerRank<std::vector<Level>> mkWant(1);
  mkWant[0].assign(base.localOf(0).size(), 2);
  mkWant[0][0] = 4;
  auto tree = remesh(base, mkWant);

  sim::PerRank<std::vector<Level>> want(1);
  const auto& leaves = tree.localOf(0);
  want[0].resize(leaves.size());
  bool sawRing = false;
  for (std::size_t e = 0; e < leaves.size(); ++e) {
    want[0][e] = leaves[e].level == 3 ? 2 : leaves[e].level;
    sawRing = sawRing || leaves[e].level == 3;
  }
  ASSERT_TRUE(sawRing);
  EXPECT_FALSE(remeshIsNoOp(tree, want));
  auto out = remesh(tree, want);
  EXPECT_EQ(out.localOf(0), tree.localOf(0));
}

TEST(NoopRemesh, SolverSkipsRebuildTransferAndInvalidation) {
  sim::SimComm comm(2, sim::Machine::loopback());
  chns::ChnsOptions<2> opt;
  opt.params.Cn = 0.03;
  // Every element already sits at the target level, so identify produces a
  // want vector equal to the current tree -> tier-1 no-op.
  opt.coarseLevel = opt.interfaceLevel = opt.featureLevel = 4;
  opt.referenceLevel = 4;
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });

  const Mesh<2>* meshBefore = &s.mesh();
  const long rebuilds = s.meshRebuilds();
  const long invalidations = s.cacheInvalidations();
  s.remeshNow();
  s.remeshNow();
  EXPECT_EQ(s.noopRemeshes(), 2);
  EXPECT_EQ(s.meshRebuilds(), rebuilds) << "no-op remesh rebuilt the mesh";
  EXPECT_EQ(s.cacheInvalidations(), invalidations)
      << "no-op remesh invalidated warm solver caches";
  EXPECT_EQ(&s.mesh(), meshBefore) << "no-op remesh replaced the mesh object";
}

// ---- Transfer-epoch routing tables ------------------------------------------

TEST(TransferEpoch, FiveFieldEpochChargesOneTableGather) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto oldTree = adaptedDropTree<2>(comm, 3, 5);
  auto oldMesh = Mesh<2>::build(comm, oldTree);
  auto newTree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
  auto newMesh = Mesh<2>::build(comm, newTree);

  Rng rng(5);
  auto randomField = [&](int ndof) {
    Field f = oldMesh.makeField(ndof);
    for (auto& rank : f)
      for (auto& v : rank) v = rng.uniform(-1, 1);
    oldMesh.ghostRead(f, ndof);
    return f;
  };
  const Field phi = randomField(1), mu = randomField(1), vel = randomField(2),
              p = randomField(1);
  sim::PerRank<std::vector<Real>> cell(comm.size());
  for (int r = 0; r < comm.size(); ++r) {
    cell[r].resize(oldTree.localOf(r).size());
    for (auto& v : cell[r]) v = rng.uniform(0.01, 0.03);
  }

  auto runEpoch = [&](bool fast) {
    const long c0 = comm.stats().collectives;
    const intergrid::TransferTables<2> tables =
        fast ? intergrid::gatherTransferTables(oldTree)
             : intergrid::TransferTables<2>{};
    const intergrid::TransferTables<2>* tp = fast ? &tables : nullptr;
    Field a = intergrid::transferNodal(oldMesh, phi, newMesh, 1, tp);
    Field b = intergrid::transferNodal(oldMesh, mu, newMesh, 1, tp);
    Field c = intergrid::transferNodal(oldMesh, vel, newMesh, 2, tp);
    Field d = intergrid::transferNodal(oldMesh, p, newMesh, 1, tp);
    auto e = intergrid::transferCell(oldTree, cell, newTree, tp);
    return std::make_pair(comm.stats().collectives - c0,
                          std::make_pair(std::move(a), std::move(e)));
  };
  auto fast = runEpoch(true);
  auto base = runEpoch(false);
  // Identical results...
  for (int r = 0; r < comm.size(); ++r) {
    EXPECT_EQ(fast.second.first[r], base.second.first[r]);
    EXPECT_EQ(fast.second.second[r], base.second.second[r]);
  }
  // ...and exactly the per-field table gathers saved: the baseline charges
  // 4 nodal splitter gathers + 2 in transferCell (splitters + endpoint
  // round), the epoch path exactly one combined gather.
  EXPECT_EQ(base.first - fast.first, 5);
}

// ---- Per-phase remesh instrumentation ---------------------------------------

TEST(RemeshTimersTest, PhasesRecordOneCallEach) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(3));
  sim::PerRank<std::vector<Level>> want(comm.size());
  for (int r = 0; r < comm.size(); ++r) {
    const auto& leaves = tree.localOf(r);
    want[r].resize(leaves.size());
    for (std::size_t e = 0; e < leaves.size(); ++e)
      want[r][e] = static_cast<Level>(leaves[e].level + (e % 7 == 0 ? 1 : 0));
  }
  obs::PhaseSet ts;
  RemeshTimers rt{&ts["refine"], &ts["coarsen"], &ts["balance"],
                  &ts["repartition"]};
  auto out = remesh(tree, want, rt);
  EXPECT_GT(out.localOf(0).size() + out.localOf(1).size(),
            tree.localOf(0).size() + tree.localOf(1).size());
  EXPECT_EQ(ts["refine"].calls(), 1);
  EXPECT_EQ(ts["coarsen"].calls(), 1);
  EXPECT_EQ(ts["balance"].calls(), 1);
  EXPECT_EQ(ts["repartition"].calls(), 1);
}

// ---- Full-pipeline history identity -----------------------------------------

template <int DIM>
chns::ChnsOptions<DIM> dropOptions(int remeshEvery, Level coarse, Level fine) {
  chns::ChnsOptions<DIM> opt;
  opt.params.Cn = 0.03;
  opt.dt = 1e-3;
  opt.blocksPerStep = 1;
  opt.remeshEvery = remeshEvery;
  opt.coarseLevel = coarse;
  opt.interfaceLevel = fine;
  opt.featureLevel = fine;
  opt.referenceLevel = fine;
  return opt;
}

/// A drop of radius 0.25 centered in the unit box, on a uniform tree.
template <int DIM>
chns::ChnsSolver<DIM> makeDropSolver(sim::SimComm& comm,
                                     const chns::ChnsOptions<DIM>& opt,
                                     Level level) {
  auto tree = DistTree<DIM>::fromGlobal(comm, uniformTree<DIM>(level));
  chns::ChnsSolver<DIM> s(comm, std::move(tree), opt);
  VecN<DIM> center;
  for (int d = 0; d < DIM; ++d) center[d] = 0.5;
  s.setInitialCondition([&](const VecN<DIM>& x) {
    return apps::dropPhi<DIM>(x, center, 0.25, opt.params.Cn);
  });
  return s;
}

template <int DIM>
chns::ChnsSolver<DIM> makeAdaptiveDropSolver(sim::SimComm& comm) {
  return makeDropSolver<DIM>(comm, dropOptions<DIM>(1, 3, 5), 4);
}

struct RemeshCounts {
  long noops = 0, rebuilds = 0;
};

/// Steps a warm solver `steps` times. Before each step a cold twin is
/// restored from the warm solver's checkpoint: it starts with empty pooled
/// workspaces and preconditioners, no GMG hierarchy and an empty no-op
/// memo. Both then take the step, and every history entry and state field
/// must agree bitwise — the warm state may save work, never change results.
/// Returns the warm solver's remesh counters.
template <int DIM>
RemeshCounts expectColdRestoreReplaysWarm(int ranks,
                                          const chns::ChnsOptions<DIM>& opt,
                                          Level level, int steps) {
  sim::SimComm c1(ranks, sim::Machine::loopback());
  sim::SimComm c2(ranks, sim::Machine::loopback());
  auto warm = makeDropSolver<DIM>(c1, opt, level);
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    auto cold =
        chns::restoreSolverState<DIM>(c2, chns::makeSolverCheckpoint(warm), opt);
    warm.step();
    cold.step();
    // A retired V-cycle is warm state a checkpoint does not carry, so the
    // oracle only holds while no family retires.
    EXPECT_EQ(warm.telemetry().metrics.counter("gmgRetirements").value(), 0);
    EXPECT_EQ(warm.lastChNewton_.iterations, cold.lastChNewton_.iterations);
    EXPECT_EQ(warm.lastChNewton_.totalLinearIterations,
              cold.lastChNewton_.totalLinearIterations);
    EXPECT_EQ(warm.lastChNewton_.residualNorm, cold.lastChNewton_.residualNorm);
    EXPECT_EQ(warm.lastNs_.iterations, cold.lastNs_.iterations);
    EXPECT_EQ(warm.lastNs_.relResidual, cold.lastNs_.relResidual);
    EXPECT_EQ(warm.lastPp_.iterations, cold.lastPp_.iterations);
    EXPECT_EQ(warm.lastPp_.relResidual, cold.lastPp_.relResidual);
    EXPECT_EQ(warm.lastVuIterations_, cold.lastVuIterations_);
    if (warm.mesh().nRanks() != cold.mesh().nRanks()) {
      ADD_FAILURE() << "rank counts differ";
      break;
    }
    for (int r = 0; r < warm.mesh().nRanks(); ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      EXPECT_EQ(warm.tree().localOf(r), cold.tree().localOf(r));
      EXPECT_EQ(warm.phi()[r], cold.phi()[r]);
      EXPECT_EQ(warm.mu()[r], cold.mu()[r]);
      EXPECT_EQ(warm.velocity()[r], cold.velocity()[r]);
      EXPECT_EQ(warm.pressure()[r], cold.pressure()[r]);
      EXPECT_EQ(warm.elemCn()[r], cold.elemCn()[r]);
    }
  }
  return {warm.noopRemeshes(), warm.meshRebuilds()};
}

TEST(RemeshPipeline, ColdRestoreReplaysWarmHistory) {
  {
    SCOPED_TRACE("fixed 2D level-5 mesh, 1 rank");
    expectColdRestoreReplaysWarm<2>(1, dropOptions<2>(0, 5, 5), 5, 2);
  }
  {
    // remeshEvery=1 on the adapting drop: the first remesh rebuilds, the
    // later ones take the no-op exits (tier 0 in the warm solver, whose
    // memo the cold twin lacks).
    SCOPED_TRACE("adaptive 2D drop, 2 ranks, remeshEvery=1");
    const RemeshCounts n =
        expectColdRestoreReplaysWarm<2>(2, dropOptions<2>(1, 3, 5), 4, 3);
    EXPECT_GT(n.noops, 0);
    EXPECT_GT(n.rebuilds, 1);  // the constructor's build plus a real remesh
  }
  {
    SCOPED_TRACE("adaptive 3D drop, 2 ranks, remeshEvery=1");
    const RemeshCounts n =
        expectColdRestoreReplaysWarm<3>(2, dropOptions<3>(1, 2, 3), 2, 2);
    EXPECT_GT(n.rebuilds, 1);
  }
}

TEST(RemeshPipeline, ThreadedFastPathMatchesSerial) {
  sim::SimComm c1(2, sim::Machine::loopback());
  auto serial = makeAdaptiveDropSolver<2>(c1);
  serial.step();
  serial.step();

  sim::SimComm c2(2, sim::Machine::loopback());
  ThreadGuard tg(4);
  auto threaded = makeAdaptiveDropSolver<2>(c2);
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
