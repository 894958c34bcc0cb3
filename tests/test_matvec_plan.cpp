// Golden tests for the planned / batched / threaded MATVEC engine against
// the naive reference, on meshes WITH hanging corners, plus plan-invariant
// and remesh-rebuild checks.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "amr/remesh.hpp"
#include "fem/matvec.hpp"
#include "fem/matvec_batched.hpp"
#include "mesh/mesh.hpp"
#include "octree/balance.hpp"
#include "support/thread_pool.hpp"

namespace pt {
namespace {

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

/// Smooth, dof-dependent input field.
template <int DIM>
Field smoothInput(const Mesh<DIM>& mesh, int ndof) {
  Field x = mesh.makeField(ndof);
  fem::setByPosition<DIM>(mesh, x, ndof, [ndof](const VecN<DIM>& pos, Real* out) {
    Real s = 0;
    for (int d = 0; d < DIM; ++d) s += (d + 1.0) * pos[d];
    for (int d = 0; d < ndof; ++d)
      out[d] = std::sin(3.0 * s + d) + 0.25 * d;
  });
  return x;
}

/// Helmholtz-type elemental kernel (massCoef*M + stiffCoef*K per dof),
/// written against the closed-form reference operators.
template <int DIM>
void helmholtzKernel(const Octant<DIM>& oct, const Real* in, Real* out,
                     int ndof, Real massCoef, Real stiffCoef) {
  constexpr int kC = kNumChildren<DIM>;
  Real col[kC], res[kC];
  for (int d = 0; d < ndof; ++d) {
    for (int i = 0; i < kC; ++i) {
      col[i] = in[i * ndof + d];
      res[i] = 0.0;
    }
    fem::applyMass<DIM>(oct.physSize(), col, res);
    for (int i = 0; i < kC; ++i) out[i * ndof + d] += massCoef * res[i];
    for (int i = 0; i < kC; ++i) res[i] = 0.0;
    fem::applyStiffness<DIM>(oct.physSize(), col, res);
    for (int i = 0; i < kC; ++i) out[i * ndof + d] += stiffCoef * res[i];
  }
}

Real maxAbs(const Field& f) {
  Real m = 0;
  for (const auto& v : f)
    for (Real x : v) m = std::max(m, std::abs(x));
  return m;
}

Real maxDiff(const Field& a, const Field& b) {
  Real m = 0;
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].size(), b[r].size());
    for (std::size_t i = 0; i < a[r].size(); ++i)
      m = std::max(m, std::abs(a[r][i] - b[r][i]));
  }
  return m;
}

// ---- Plan invariants --------------------------------------------------------

template <int DIM>
void checkPlanInvariants(const Mesh<DIM>& mesh) {
  constexpr int kC = kNumChildren<DIM>;
  for (int r = 0; r < mesh.nRanks(); ++r) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    const ElemPlan& plan = rm.plan;
    ASSERT_EQ(plan.isPure.size(), rm.nElems());
    ASSERT_EQ(plan.slot.size(), rm.nElems());
    EXPECT_EQ(plan.nPure() + plan.nHanging(), rm.nElems());
    EXPECT_EQ(plan.pureNodes.size(), plan.nPure() * kC);
    // Purity matches the support structure; pureNodes match the supports.
    for (std::size_t e = 0; e < rm.nElems(); ++e) {
      bool pure = true;
      for (int c = 0; c < kC; ++c) {
        const auto lo = rm.cornerOffset[e * kC + c];
        const auto hi = rm.cornerOffset[e * kC + c + 1];
        pure = pure && (hi - lo == 1) && rm.supports[lo].weight == 1.0;
      }
      EXPECT_EQ(static_cast<bool>(plan.isPure[e]), pure);
      if (plan.isPure[e]) {
        const std::uint32_t slot = plan.slot[e];
        EXPECT_EQ(plan.pureElems[slot], e);
        for (int c = 0; c < kC; ++c)
          EXPECT_EQ(plan.pureNodes[slot * kC + c],
                    rm.supports[rm.cornerOffset[e * kC + c]].node);
      }
    }
    // Batches cover pureElems exactly, in order, uniform level, bounded.
    std::size_t covered = 0;
    for (std::size_t b = 0; b < plan.batches.size(); ++b) {
      const ElemPlanBatch& batch = plan.batches[b];
      EXPECT_EQ(batch.begin, covered);
      ASSERT_GT(batch.end, batch.begin);
      EXPECT_LE(batch.end - batch.begin, kMatvecBatch);
      for (std::uint32_t i = batch.begin; i < batch.end; ++i)
        EXPECT_EQ(rm.elems[plan.pureElems[i]].level, batch.level);
      covered = batch.end;
    }
    EXPECT_EQ(covered, plan.nPure());
  }
}

TEST(MatvecPlan, InvariantsOnAdaptiveMesh) {
  sim::SimComm comm(4, sim::Machine::loopback());
  auto mesh = makeMesh<3>(comm, 1, 4);
  checkPlanInvariants(mesh);
  // The mesh must actually exercise the hanging path.
  std::size_t hanging = 0;
  for (int r = 0; r < mesh.nRanks(); ++r)
    hanging += mesh.rank(r).plan.nHanging();
  EXPECT_GT(hanging, 0u);
}

TEST(MatvecPlan, Invariants2D) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto mesh = makeMesh<2>(comm, 2, 5);
  checkPlanInvariants(mesh);
}

// ---- Golden: planned engine vs naive reference ------------------------------

template <int DIM>
void goldenPlannedVsNaive(int p, int ndof) {
  sim::SimComm comm(p, sim::Machine::loopback());
  auto mesh = makeMesh<DIM>(comm, DIM == 3 ? 1 : 2, 4);
  const Real massCoef = 1.3, stiffCoef = 0.7;
  Field x = smoothInput(mesh, ndof);

  Field yNaive = mesh.makeField(ndof);
  fem::matvecNaive<DIM>(mesh, x, yNaive, ndof,
                        [&](const Octant<DIM>& oct, const Real* in, Real* out) {
                          helmholtzKernel<DIM>(oct, in, out, ndof, massCoef,
                                               stiffCoef);
                        });

  // Planned per-element engine: bit-identical to the naive reference (same
  // FP ops in the same order; the pure fast path drops only exact
  // 0 + 1.0*x no-ops).
  Field yPlanned = mesh.makeField(ndof);
  fem::matvec<DIM>(mesh, x, yPlanned, ndof,
                   [&](const Octant<DIM>& oct, const Real* in, Real* out) {
                     helmholtzKernel<DIM>(oct, in, out, ndof, massCoef,
                                          stiffCoef);
                   });
  EXPECT_EQ(maxDiff(yNaive, yPlanned), 0.0);

  // Batched GEMM engine: same operator, reassociated FP -> roundoff-level
  // agreement.
  Field yBatched = mesh.makeField(ndof);
  fem::matvecUniform<DIM>(mesh, x, yBatched, ndof, massCoef, stiffCoef);
  const Real scale = std::max(Real(1), maxAbs(yNaive));
  EXPECT_LE(maxDiff(yNaive, yBatched) / scale, 1e-13);
}

TEST(MatvecPlan, Golden3DScalarSerial) { goldenPlannedVsNaive<3>(1, 1); }
TEST(MatvecPlan, Golden3DNdof5Parallel) { goldenPlannedVsNaive<3>(4, 5); }
TEST(MatvecPlan, Golden2DNdof5) { goldenPlannedVsNaive<2>(2, 5); }

// ---- Threading: 4 threads vs 1 ---------------------------------------------

TEST(MatvecPlan, ThreadedMatchesSerial) {
  sim::SimComm comm(4, sim::Machine::loopback());
  auto mesh = makeMesh<3>(comm, 1, 4);
  const int ndof = 5;
  const Real massCoef = 1.3, stiffCoef = 0.7;
  Field x = smoothInput(mesh, ndof);
  auto kernel = [&](const Octant<3>& oct, const Real* in, Real* out) {
    helmholtzKernel<3>(oct, in, out, ndof, massCoef, stiffCoef);
  };

  auto& pool = support::ThreadPool::instance();
  Field y1 = mesh.makeField(ndof), y1b = mesh.makeField(ndof);
  pool.setThreads(1);
  fem::matvec<3>(mesh, x, y1, ndof, kernel);
  fem::matvecUniform<3>(mesh, x, y1b, ndof, massCoef, stiffCoef);

  Field y4 = mesh.makeField(ndof), y4b = mesh.makeField(ndof);
  pool.setThreads(4);
  fem::matvec<3>(mesh, x, y4, ndof, kernel);
  fem::matvecUniform<3>(mesh, x, y4b, ndof, massCoef, stiffCoef);
  pool.setThreads(1);

  // Both engines: bit-identical across thread counts (per-element: windowed
  // compute, sequential element-order scatter; batched: each rank's batches
  // in plan order).
  EXPECT_EQ(maxDiff(y1, y4), 0.0);
  EXPECT_EQ(maxDiff(y1b, y4b), 0.0);
}

// ---- Pool lifecycle ---------------------------------------------------------

// Regression: stopWorkers() bumps the job generation, so workers spawned by
// a later setThreads() used to wake on the stale bump, run a null job, and
// corrupt the pending-part count — releasing a subsequent parallelFor before
// all partitions finished. Cycle the pool down and back up repeatedly and
// verify every index is processed exactly once per call.
TEST(ThreadPool, SurvivesStopStartCycles) {
  auto& pool = support::ThreadPool::instance();
  constexpr std::size_t kN = 20000;
  for (int cycle = 0; cycle < 3; ++cycle) {
    pool.setThreads(4);
    std::vector<int> hits(kN, 0);
    for (int rep = 0; rep < 20; ++rep)
      pool.parallelFor(kN, [&](int, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i] += 1;
      });
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 20);
    pool.setThreads(1);
  }
}

// Exceptions from any partition (worker or caller) are rethrown on the
// coordinating thread after the join barrier, and the pool stays usable.
TEST(ThreadPool, PartitionExceptionPropagates) {
  auto& pool = support::ThreadPool::instance();
  pool.setThreads(4);
  for (int throwingPart : {0, 2}) {  // caller-side and worker-side
    EXPECT_THROW(
        pool.parallelFor(100,
                         [&](int part, std::size_t, std::size_t) {
                           if (part == throwingPart)
                             throw std::runtime_error("boom");
                         }),
        std::runtime_error);
  }
  std::vector<char> seen(100, 0);
  pool.parallelFor(seen.size(), [&](int, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) seen[i] = 1;
  });
  for (char c : seen) EXPECT_EQ(c, 1);
  pool.setThreads(1);
}

// ---- Remesh rebuilds plans --------------------------------------------------

TEST(MatvecPlan, RebuiltAfterRemesh) {
  sim::SimComm comm(4, sim::Machine::loopback());
  auto dt = DistTree<2>::fromGlobal(comm, interfaceTree<2>(2, 4));
  auto mesh = Mesh<2>::build(comm, dt);
  checkPlanInvariants(mesh);

  // Refine around a different interface (a shifted sphere) and coarsen the
  // rest — the new mesh has a different pure/hanging split.
  sim::PerRank<std::vector<Level>> want(comm.size());
  for (int r = 0; r < comm.size(); ++r) {
    const auto& leaves = dt.localOf(r);
    want[r].resize(leaves.size());
    for (std::size_t e = 0; e < leaves.size(); ++e) {
      auto c = leaves[e].centerCoords();
      const Real dx = c[0] - 0.3, dy = c[1] - 0.7;
      const Real dist = std::abs(std::sqrt(dx * dx + dy * dy) - 0.2);
      want[r][e] = dist < 2.0 * leaves[e].physSize() ? 5 : 2;
    }
  }
  auto newTree = remesh(dt, want);
  auto newMesh = Mesh<2>::build(comm, newTree);
  checkPlanInvariants(newMesh);

  // And the planned engine still matches naive on the new mesh.
  const int ndof = 2;
  Field x = smoothInput(newMesh, ndof);
  Field yn = newMesh.makeField(ndof), yp = newMesh.makeField(ndof);
  auto kfn = [&](const Octant<2>& oct, const Real* in, Real* out) {
    helmholtzKernel<2>(oct, in, out, ndof, 1.0, 1.0);
  };
  fem::matvecNaive<2>(newMesh, x, yn, ndof, kfn);
  fem::matvec<2>(newMesh, x, yp, ndof, kfn);
  EXPECT_EQ(maxDiff(yn, yp), 0.0);
}

}  // namespace
}  // namespace pt
