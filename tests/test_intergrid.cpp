#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "amr/remesh.hpp"
#include "apps/fields.hpp"
#include "intergrid/overlap.hpp"
#include "intergrid/transfer.hpp"
#include "mesh/mesh.hpp"
#include "octree/balance.hpp"
#include "support/rng.hpp"

namespace pt {
namespace {

template <int DIM>
OctList<DIM> randomBalancedTree(Rng& rng, Level maxLevel, Real prob) {
  OctList<DIM> out;
  std::function<void(const Octant<DIM>&)> rec = [&](const Octant<DIM>& o) {
    if (o.level < maxLevel && rng.bernoulli(prob)) {
      for (int c = 0; c < kNumChildren<DIM>; ++c) rec(o.child(c));
    } else {
      out.push_back(o);
    }
  };
  rec(Octant<DIM>::root());
  return balanceTree(out);
}

template <int DIM>
Real linearFn(const VecN<DIM>& x) {
  Real v = 0.5;
  for (int d = 0; d < DIM; ++d) v += (d + 1.5) * x[d];
  return v;
}

// ---- ⊑ order and overlap searches ------------------------------------------

TEST(OverlapOrder, BasicRelations) {
  Octant<2> root = Octant<2>::root();
  Octant<2> a = root.child(0), b = root.child(1);
  Octant<2> aa = a.child(3);
  EXPECT_TRUE(intergrid::sqLessEq(a, aa));  // same class
  EXPECT_TRUE(intergrid::sqLessEq(aa, a));  // same class (symmetric in ~)
  EXPECT_TRUE(intergrid::sqLess(a, b));
  EXPECT_FALSE(intergrid::sqLess(b, a));
  EXPECT_TRUE(intergrid::sqLessEq(aa, b));
  EXPECT_FALSE(intergrid::sqLessEq(b, aa));
}

TEST(OverlapOrder, LocalRangeMatchesBruteForce) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    OctList<2> g = randomBalancedTree<2>(rng, 5, 0.5);
    OctList<2> h = randomBalancedTree<2>(rng, 5, 0.5);
    // Pick a random contiguous interval in h as the "partition".
    const std::size_t lo = rng.uniformInt(0, h.size() - 1);
    const std::size_t hi = rng.uniformInt(lo, h.size() - 1);
    auto [i0, i1] = intergrid::overlappedLocalRange(g, h[lo], h[hi]);
    for (std::size_t i = 0; i < g.size(); ++i) {
      // Brute force: g[i] belongs in the range iff it is not strictly
      // before h[lo] and not strictly after h[hi].
      const bool inRange =
          !intergrid::sqLess(g[i], h[lo]) && !intergrid::sqLess(h[hi], g[i]);
      EXPECT_EQ(i >= i0 && i < i1, inRange)
          << "trial " << trial << " i " << i;
    }
  }
}

TEST(OverlapOrder, RankRangeFindsAllOverlappingPartitions) {
  Rng rng(43);
  OctList<2> h = randomBalancedTree<2>(rng, 5, 0.6);
  const int p = 5;
  intergrid::PartitionEndpoints<2> ends;
  ends.first.resize(p);
  ends.last.resize(p);
  ends.hasData.assign(p, 1);
  std::vector<std::pair<std::size_t, std::size_t>> cuts;
  std::size_t pos = 0;
  for (int r = 0; r < p; ++r) {
    std::size_t take = h.size() / p;
    if (r == p - 1) take = h.size() - pos;
    ends.first[r] = h[pos];
    ends.last[r] = h[pos + take - 1];
    cuts.push_back({pos, pos + take});
    pos += take;
  }
  // Query with random octants; verify against brute force membership.
  for (int trial = 0; trial < 100; ++trial) {
    const Octant<2>& q = h[rng.uniformInt(0, h.size() - 1)];
    const Octant<2> probe = (trial % 2) ? q : q.parent();
    auto ranks = intergrid::overlappedRanks(ends, probe, probe);
    for (int r = 0; r < p; ++r) {
      bool expect = false;
      for (std::size_t i = cuts[r].first; i < cuts[r].second && !expect; ++i)
        expect = !intergrid::sqLess(h[i], probe) &&
                 !intergrid::sqLess(probe, h[i]);
      const bool got =
          std::find(ranks.begin(), ranks.end(), r) != ranks.end();
      EXPECT_EQ(got, expect);
    }
  }
}

// ---- Nodal transfer ---------------------------------------------------------

struct XferCase {
  int ranks;
  unsigned seed;
};
class XferP : public ::testing::TestWithParam<XferCase> {};

TEST_P(XferP, LinearFieldExactUnderRandomRemesh) {
  const auto [p, seed] = GetParam();
  sim::SimComm comm(p, sim::Machine::loopback());
  Rng rng(seed);
  auto oldTree = DistTree<2>::fromGlobal(comm, randomBalancedTree<2>(rng, 5, 0.5));
  auto newTree = DistTree<2>::fromGlobal(comm, randomBalancedTree<2>(rng, 5, 0.5));
  auto oldMesh = Mesh<2>::build(comm, oldTree);
  auto newMesh = Mesh<2>::build(comm, newTree);
  Field u = oldMesh.makeField();
  fem::setByPosition<2>(oldMesh, u, 1, [](const VecN<2>& x, Real* v) {
    v[0] = linearFn<2>(x);
  });
  Field v = intergrid::transferNodal(oldMesh, u, newMesh, 1);
  for (int r = 0; r < p; ++r) {
    const auto& rm = newMesh.rank(r);
    for (std::size_t li = 0; li < rm.nNodes(); ++li)
      EXPECT_NEAR(v[r][li], linearFn<2>(nodeCoords(rm.nodeKeys[li])), 1e-12);
  }
}

TEST_P(XferP, InjectionExactOnCoarsening) {
  // Fine -> coarse: every coarse node coincides with a fine node, so any
  // field (not just linear) transfers exactly (injection).
  const auto [p, seed] = GetParam();
  sim::SimComm comm(p, sim::Machine::loopback());
  auto fineTree = DistTree<2>::fromGlobal(comm, uniformTree<2>(5));
  auto coarseTree = DistTree<2>::fromGlobal(comm, uniformTree<2>(3));
  auto fineMesh = Mesh<2>::build(comm, fineTree);
  auto coarseMesh = Mesh<2>::build(comm, coarseTree);
  Field u = fineMesh.makeField();
  fem::setByPosition<2>(fineMesh, u, 1, [](const VecN<2>& x, Real* v) {
    v[0] = std::sin(7 * x[0]) * std::cos(5 * x[1]);
  });
  Field v = intergrid::transferNodal(fineMesh, u, coarseMesh, 1);
  for (int r = 0; r < p; ++r) {
    const auto& rm = coarseMesh.rank(r);
    for (std::size_t li = 0; li < rm.nNodes(); ++li) {
      const auto x = nodeCoords(rm.nodeKeys[li]);
      EXPECT_NEAR(v[r][li], std::sin(7 * x[0]) * std::cos(5 * x[1]), 1e-12);
    }
  }
}

TEST_P(XferP, MultiLevelJumpEqualsComposition) {
  // Jumping 3 levels at once must equal three single-level transfers
  // (coarse-to-fine interpolation of multilinear data is exact).
  const auto [p, seed] = GetParam();
  sim::SimComm comm(p, sim::Machine::loopback());
  std::vector<Mesh<2>> meshes;
  for (Level L = 2; L <= 5; ++L) {
    auto t = DistTree<2>::fromGlobal(comm, uniformTree<2>(L));
    meshes.push_back(Mesh<2>::build(comm, t));
  }
  Field u = meshes[0].makeField();
  fem::setByPosition<2>(meshes[0], u, 1, [](const VecN<2>& x, Real* v) {
    v[0] = std::sin(4 * x[0]) + x[1] * x[1];
  });
  Field direct = intergrid::transferNodal(meshes[0], u, meshes[3], 1);
  Field step = u;
  for (int i = 1; i <= 3; ++i)
    step = intergrid::transferNodal(meshes[i - 1], step, meshes[i], 1);
  for (int r = 0; r < p; ++r)
    for (std::size_t i = 0; i < direct[r].size(); ++i)
      EXPECT_NEAR(direct[r][i], step[r][i], 1e-12);
}

TEST_P(XferP, MultiDofTransfer) {
  const auto [p, seed] = GetParam();
  sim::SimComm comm(p, sim::Machine::loopback());
  auto oldTree = DistTree<2>::fromGlobal(comm, uniformTree<2>(3));
  auto newTree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
  auto oldMesh = Mesh<2>::build(comm, oldTree);
  auto newMesh = Mesh<2>::build(comm, newTree);
  Field u = oldMesh.makeField(3);
  fem::setByPosition<2>(oldMesh, u, 3, [](const VecN<2>& x, Real* v) {
    v[0] = x[0];
    v[1] = x[1];
    v[2] = 1 + x[0] - 2 * x[1];
  });
  Field v = intergrid::transferNodal(oldMesh, u, newMesh, 3);
  for (int r = 0; r < p; ++r) {
    const auto& rm = newMesh.rank(r);
    for (std::size_t li = 0; li < rm.nNodes(); ++li) {
      const auto x = nodeCoords(rm.nodeKeys[li]);
      EXPECT_NEAR(v[r][li * 3 + 0], x[0], 1e-12);
      EXPECT_NEAR(v[r][li * 3 + 1], x[1], 1e-12);
      EXPECT_NEAR(v[r][li * 3 + 2], 1 + x[0] - 2 * x[1], 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweeps, XferP,
                         ::testing::Values(XferCase{1, 11}, XferCase{2, 12},
                                           XferCase{4, 13}, XferCase{7, 14}));

// ---- Cell-centered transfer --------------------------------------------------

TEST(CellTransfer, CopyOnRefinementAverageOnCoarsening) {
  sim::SimComm comm(3, sim::Machine::loopback());
  auto coarseT = DistTree<2>::fromGlobal(comm, uniformTree<2>(2));  // 16
  auto fineT = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));    // 256
  // Cell data = 1000*level-4 Morton index on the coarse grid.
  sim::PerRank<std::vector<Real>> cvals(3);
  {
    int idx = 0;
    for (int r = 0; r < 3; ++r) {
      cvals[r].resize(coarseT.localOf(r).size());
      for (auto& v : cvals[r]) v = 1000.0 + idx++;
    }
  }
  // Coarse -> fine: every fine cell gets its ancestor's value.
  auto fvals = intergrid::transferCell(coarseT, cvals, fineT);
  for (int r = 0; r < 3; ++r) {
    const auto& elems = fineT.localOf(r);
    for (std::size_t e = 0; e < elems.size(); ++e) {
      // Find the coarse ancestor's value by searching the coarse grid.
      const Octant<2> anc = elems[e].ancestorAt(2);
      Real expect = -1;
      for (int q = 0; q < 3; ++q) {
        const auto& ce = coarseT.localOf(q);
        for (std::size_t i = 0; i < ce.size(); ++i)
          if (ce[i] == anc) expect = cvals[q][i];
      }
      EXPECT_DOUBLE_EQ(fvals[r][e], expect);
    }
  }
  // Fine -> coarse: averaging the constant-per-ancestor data returns it.
  auto back = intergrid::transferCell(fineT, fvals, coarseT);
  for (int r = 0; r < 3; ++r)
    for (std::size_t e = 0; e < back[r].size(); ++e)
      EXPECT_NEAR(back[r][e], cvals[r][e], 1e-10);
}

TEST(CellTransfer, AverageConservesIntegral) {
  sim::SimComm comm(2, sim::Machine::loopback());
  Rng rng(55);
  auto fineT =
      DistTree<2>::fromGlobal(comm, randomBalancedTree<2>(rng, 5, 0.6));
  auto coarseT = DistTree<2>::fromGlobal(comm, uniformTree<2>(2));
  sim::PerRank<std::vector<Real>> fvals(2);
  Real fineIntegral = 0;
  for (int r = 0; r < 2; ++r) {
    const auto& elems = fineT.localOf(r);
    fvals[r].resize(elems.size());
    for (std::size_t e = 0; e < elems.size(); ++e) {
      fvals[r][e] = rng.uniform(-1, 1);
      const Real vol = elems[e].physSize() * elems[e].physSize();
      fineIntegral += fvals[r][e] * vol;
    }
  }
  auto cvals = intergrid::transferCell(fineT, fvals, coarseT);
  Real coarseIntegral = 0;
  for (int r = 0; r < 2; ++r) {
    const auto& elems = coarseT.localOf(r);
    for (std::size_t e = 0; e < elems.size(); ++e)
      coarseIntegral +=
          cvals[r][e] * elems[e].physSize() * elems[e].physSize();
  }
  EXPECT_NEAR(coarseIntegral, fineIntegral, 1e-12);
}

// ---- Remesh driver -----------------------------------------------------------

TEST(Remesh, RefineAndCoarsenWithFieldTransfer) {
  sim::SimComm comm(3, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
  auto mesh = Mesh<2>::build(comm, tree);
  Field phi = mesh.makeField();
  fem::setByPosition<2>(mesh, phi, 1, [](const VecN<2>& x, Real* v) {
    v[0] = apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, 0.03);
  });
  // Refine near the interface to 6, coarsen the far field to 2.
  sim::PerRank<std::vector<Level>> want(3);
  for (int r = 0; r < 3; ++r) {
    const auto& elems = tree.localOf(r);
    want[r].resize(elems.size());
    for (std::size_t e = 0; e < elems.size(); ++e) {
      auto c = elems[e].centerCoords();
      const Real d = std::abs(std::hypot(c[0] - 0.5, c[1] - 0.5) - 0.25);
      want[r][e] = d < 0.1 ? Level(6) : Level(2);
    }
  }
  auto newTree = remesh(tree, want);
  EXPECT_TRUE(newTree.globallyLinear());
  auto leaves = newTree.gather();
  EXPECT_TRUE(isBalanced(leaves));
  EXPECT_NEAR(coveredVolume(leaves), 1.0, 1e-12);
  auto hist = levelHistogram(leaves);
  EXPECT_GT(hist[6], 0u);
  // The far field coarsens below the original level 4; full corner-2:1
  // grading around the jagged level-6 band limits how coarse it can get.
  std::size_t coarserThanOriginal = hist[0] + hist[1] + hist[2] + hist[3];
  EXPECT_GT(coarserThanOriginal + hist[4], 0u);
  EXPECT_LT(hist[4], 256u);  // not everything stayed at the original level
  // Transfer the phase field and verify its range and interface location.
  auto newMesh = Mesh<2>::build(comm, newTree);
  Field phiNew = intergrid::transferNodal(mesh, phi, newMesh, 1);
  Real minV = 1e9, maxV = -1e9;
  for (int r = 0; r < 3; ++r)
    for (Real v : phiNew[r]) {
      minV = std::min(minV, v);
      maxV = std::max(maxV, v);
    }
  EXPECT_GE(minV, -1.0 - 1e-9);
  EXPECT_LE(maxV, 1.0 + 1e-9);
  EXPECT_LT(minV, -0.9);  // liquid core survived
  EXPECT_GT(maxV, 0.9);   // bulk survived
}

TEST(Remesh, IdempotentWhenTargetsMatch) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(3));
  sim::PerRank<std::vector<Level>> want(2);
  for (int r = 0; r < 2; ++r)
    want[r].assign(tree.localOf(r).size(), Level(3));
  auto out = remesh(tree, want);
  auto a = tree.gather(), b = out.gather();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

}  // namespace
}  // namespace pt
