#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "amr/refine.hpp"
#include "fem/matvec.hpp"
#include "mesh/mesh.hpp"
#include "octree/balance.hpp"
#include "support/rng.hpp"

namespace pt {
namespace {

template <int DIM>
DistTree<DIM> makeDistTree(sim::SimComm& comm, const OctList<DIM>& global) {
  return DistTree<DIM>::fromGlobal(comm, global);
}

/// A balanced adaptive tree refined around a spherical interface.
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
Real linearFn(const VecN<DIM>& x) {
  Real v = 1.0;
  for (int d = 0; d < DIM; ++d) v += (d + 2.0) * x[d];
  return v;
}

// ---- Node enumeration -------------------------------------------------------

struct MeshCase {
  int ranks;
};
class MeshP : public ::testing::TestWithParam<MeshCase> {};

TEST_P(MeshP, UniformGridNodeCount2D) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  const Level L = 3;
  auto dt = makeDistTree<2>(comm, uniformTree<2>(L));
  auto mesh = Mesh<2>::build(comm, dt);
  const GlobalIdx side = (GlobalIdx(1) << L) + 1;
  EXPECT_EQ(mesh.globalNodeCount(), side * side);
  // No hanging corners on a uniform grid.
  for (int r = 0; r < p; ++r)
    for (char h : mesh.rank(r).cornerIsHanging) EXPECT_EQ(h, 0);
}

TEST_P(MeshP, UniformGridNodeCount3D) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  const Level L = 2;
  auto dt = makeDistTree<3>(comm, uniformTree<3>(L));
  auto mesh = Mesh<3>::build(comm, dt);
  const GlobalIdx side = (GlobalIdx(1) << L) + 1;
  EXPECT_EQ(mesh.globalNodeCount(), side * side * side);
}

TEST_P(MeshP, GlobalIdsAreAPermutation) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<2>(comm, interfaceTree<2>(2, 5));
  auto mesh = Mesh<2>::build(comm, dt);
  std::map<GlobalIdx, NodeKey<2>> seen;
  for (int r = 0; r < p; ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t li = 0; li < rm.nNodes(); ++li) {
      const GlobalIdx id = rm.nodeIds[li];
      ASSERT_GE(id, 0);
      ASSERT_LT(id, mesh.globalNodeCount());
      auto [it, inserted] = seen.emplace(id, rm.nodeKeys[li]);
      if (!inserted) {
        EXPECT_EQ(it->second, rm.nodeKeys[li]);  // same key
      }
    }
  }
  EXPECT_EQ(static_cast<GlobalIdx>(seen.size()), mesh.globalNodeCount());
}

TEST_P(MeshP, OwnershipAndSharersConsistent) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<2>(comm, interfaceTree<2>(2, 5));
  auto mesh = Mesh<2>::build(comm, dt);
  for (int r = 0; r < p; ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t li = 0; li < rm.nNodes(); ++li) {
      const auto& sh = rm.nodeSharers[li];
      ASSERT_FALSE(sh.empty());
      EXPECT_TRUE(std::is_sorted(sh.begin(), sh.end()));
      EXPECT_EQ(rm.nodeOwner[li], sh.front());
      // I must be among the sharers of my own node.
      EXPECT_TRUE(std::find(sh.begin(), sh.end(), r) != sh.end());
    }
  }
}

// The 2:1-balance lemma behind parent-corner interpolation: no support node
// of a hanging corner is itself hanging.
TEST_P(MeshP, HangingSupportsAreRealNodes) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<3>(comm, interfaceTree<3>(1, 4));
  auto mesh = Mesh<3>::build(comm, dt);
  // Hanging vertex keys (global union).
  std::set<NodeKey<3>, NodeKeyLess<3>> hangingKeys;
  constexpr int kC = 8;
  for (int r = 0; r < p; ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t e = 0; e < rm.nElems(); ++e)
      for (int c = 0; c < kC; ++c)
        if (rm.cornerIsHanging[e * kC + c])
          hangingKeys.insert(cornerKey(rm.elems[e], c));
  }
  EXPECT_FALSE(hangingKeys.empty());  // the mesh does have hanging nodes
  for (int r = 0; r < p; ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t e = 0; e < rm.nElems(); ++e)
      for (int c = 0; c < kC; ++c) {
        const std::uint32_t lo = rm.cornerOffset[e * kC + c];
        const std::uint32_t hi = rm.cornerOffset[e * kC + c + 1];
        for (std::uint32_t s = lo; s < hi; ++s)
          EXPECT_EQ(hangingKeys.count(rm.nodeKeys[rm.supports[s].node]), 0u);
      }
  }
}

/// The hanging rule evaluated on the gathered tree, one incident cell at a
/// time: corner v of `elem` hangs iff some cell incident to v lies in a
/// leaf coarser than `elem` that does not have v as a corner.
template <int DIM>
bool bruteForceHanging(const OctList<DIM>& all, const Octant<DIM>& elem,
                       const NodeKey<DIM>& v) {
  for (int inc = 0; inc < kNumChildren<DIM>; ++inc) {
    std::array<std::uint32_t, DIM> q;
    bool valid = true;
    for (int d = 0; d < DIM; ++d) {
      const bool below = (inc >> d) & 1;
      valid = valid && (below ? v[d] > 0 : v[d] < kMaxCoord);
      q[d] = below ? v[d] - 1 : v[d];
    }
    if (!valid) continue;
    const std::int64_t idx = locatePoint(all, q);
    if (idx >= 0 && all[idx].level < elem.level &&
        !isCornerOf<DIM>(v, all[idx]))
      return true;
  }
  return false;
}

template <int DIM>
void expectHangingMatchesBruteForce(int p, const OctList<DIM>& tree) {
  constexpr int kC = kNumChildren<DIM>;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<DIM>(comm, tree);
  auto mesh = Mesh<DIM>::build(comm, dt);
  const OctList<DIM> all = dt.gather();
  std::size_t nHanging = 0;
  for (int r = 0; r < p; ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t e = 0; e < rm.nElems(); ++e)
      for (int c = 0; c < kC; ++c) {
        const bool expect =
            bruteForceHanging<DIM>(all, rm.elems[e], cornerKey(rm.elems[e], c));
        EXPECT_EQ(rm.cornerIsHanging[e * kC + c] != 0, expect)
            << "rank " << r << " " << rm.elems[e] << " corner " << c;
        nHanging += expect;
      }
  }
  EXPECT_GT(nHanging, 0u);
}

// Hanging detection asks one query per parent-neighbour region; the flags
// must equal the rule applied to every incident cell, on balanced trees and
// on an unbalanced one (the rule needs no 2:1 balance).
TEST_P(MeshP, HangingFlagsMatchBruteForce) {
  const int p = GetParam().ranks;
  expectHangingMatchesBruteForce<2>(p, interfaceTree<2>(2, 6));
  expectHangingMatchesBruteForce<3>(p, interfaceTree<3>(1, 4));
  OctList<2> unbalanced;
  buildTree<2>(
      Octant<2>::root(),
      [](const Octant<2>& o) {
        auto c = o.centerCoords();
        const Real r = std::hypot(c[0] - 0.4, c[1] - 0.6);
        return std::abs(r - 0.25) < o.physSize() ? Level(7) : Level(2);
      },
      unbalanced);
  ASSERT_FALSE(isBalanced(unbalanced));
  expectHangingMatchesBruteForce<2>(p, unbalanced);
}

// The decisive correctness test: hanging interpolation must reproduce
// globally linear fields exactly at every element corner.
TEST_P(MeshP, LinearFieldReproducedExactly2D) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<2>(comm, interfaceTree<2>(2, 6));
  auto mesh = Mesh<2>::build(comm, dt);
  Field u = mesh.makeField();
  fem::setByPosition<2>(mesh, u, 1, [](const VecN<2>& x, Real* v) {
    v[0] = linearFn<2>(x);
  });
  constexpr int kC = 4;
  Real uLoc[kC];
  for (int r = 0; r < p; ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t e = 0; e < rm.nElems(); ++e) {
      fem::gatherElem(rm, e, u[r], 1, uLoc);
      for (int c = 0; c < kC; ++c) {
        const auto key = cornerKey(rm.elems[e], c);
        EXPECT_NEAR(uLoc[c], linearFn<2>(nodeCoords(key)), 1e-12);
      }
    }
  }
}

TEST_P(MeshP, LinearFieldReproducedExactly3D) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<3>(comm, interfaceTree<3>(1, 4));
  auto mesh = Mesh<3>::build(comm, dt);
  Field u = mesh.makeField();
  fem::setByPosition<3>(mesh, u, 1, [](const VecN<3>& x, Real* v) {
    v[0] = linearFn<3>(x);
  });
  constexpr int kC = 8;
  Real uLoc[kC];
  for (int r = 0; r < p; ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t e = 0; e < rm.nElems(); ++e) {
      fem::gatherElem(rm, e, u[r], 1, uLoc);
      for (int c = 0; c < kC; ++c) {
        const auto key = cornerKey(rm.elems[e], c);
        EXPECT_NEAR(uLoc[c], linearFn<3>(nodeCoords(key)), 1e-12);
      }
    }
  }
}

// ---- Ghost exchange ---------------------------------------------------------

TEST_P(MeshP, AccumulateCountsSharers) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<2>(comm, interfaceTree<2>(2, 5));
  auto mesh = Mesh<2>::build(comm, dt);
  Field f = mesh.makeField();
  for (int r = 0; r < p; ++r) std::fill(f[r].begin(), f[r].end(), 1.0);
  mesh.accumulate(f);
  for (int r = 0; r < p; ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t li = 0; li < rm.nNodes(); ++li)
      EXPECT_DOUBLE_EQ(f[r][li], static_cast<Real>(rm.nodeSharers[li].size()));
  }
}

TEST_P(MeshP, GhostReadPropagatesOwnerValues) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<2>(comm, interfaceTree<2>(2, 5));
  auto mesh = Mesh<2>::build(comm, dt);
  Field f = mesh.makeField();
  // Owners write their global id; ghosts start stale at -1.
  for (int r = 0; r < p; ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t li = 0; li < rm.nNodes(); ++li)
      f[r][li] = (rm.nodeOwner[li] == r) ? Real(rm.nodeIds[li]) : -1.0;
  }
  mesh.ghostRead(f);
  for (int r = 0; r < p; ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t li = 0; li < rm.nNodes(); ++li)
      EXPECT_DOUBLE_EQ(f[r][li], Real(rm.nodeIds[li]));
  }
}

TEST_P(MeshP, InsertConsistentOverwritesEverywhere) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<2>(comm, interfaceTree<2>(2, 5));
  auto mesh = Mesh<2>::build(comm, dt);
  Field f = mesh.makeField();
  sim::PerRank<std::vector<char>> written(p);
  for (int r = 0; r < p; ++r) {
    std::fill(f[r].begin(), f[r].end(), 0.0);
    written[r].assign(mesh.rank(r).nNodes(), 0);
  }
  // Rank p-1 inserts 7.0 at all of its local nodes.
  const int writer = p - 1;
  std::fill(f[writer].begin(), f[writer].end(), 7.0);
  std::fill(written[writer].begin(), written[writer].end(), 1);
  mesh.insertConsistent(f, written);
  // Every copy of every node the writer touched must now read 7.
  std::set<NodeKey<2>, NodeKeyLess<2>> touched(
      mesh.rank(writer).nodeKeys.begin(), mesh.rank(writer).nodeKeys.end());
  for (int r = 0; r < p; ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t li = 0; li < rm.nNodes(); ++li)
      if (touched.count(rm.nodeKeys[li])) {
        EXPECT_DOUBLE_EQ(f[r][li], 7.0) << "rank " << r << " node " << li;
      }
  }
}

TEST_P(MeshP, DotCountsEachNodeOnce) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<2>(comm, interfaceTree<2>(2, 5));
  auto mesh = Mesh<2>::build(comm, dt);
  Field ones = mesh.makeField();
  for (int r = 0; r < p; ++r)
    std::fill(ones[r].begin(), ones[r].end(), 1.0);
  EXPECT_DOUBLE_EQ(mesh.dot(ones, ones), Real(mesh.globalNodeCount()));
}

// ---- MATVEC ----------------------------------------------------------------

TEST_P(MeshP, MassTimesOnesIntegratesToVolume) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<2>(comm, interfaceTree<2>(2, 6));
  auto mesh = Mesh<2>::build(comm, dt);
  Field ones = mesh.makeField(), Mu = mesh.makeField();
  for (int r = 0; r < p; ++r)
    std::fill(ones[r].begin(), ones[r].end(), 1.0);
  fem::massMatvec(mesh, ones, Mu);
  // 1^T M 1 = volume of the unit square.
  EXPECT_NEAR(mesh.dot(ones, Mu), 1.0, 1e-12);
}

TEST_P(MeshP, MassIntegratesLinearExactly) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<2>(comm, interfaceTree<2>(2, 6));
  auto mesh = Mesh<2>::build(comm, dt);
  Field u = mesh.makeField(), Mu = mesh.makeField(), ones = mesh.makeField();
  fem::setByPosition<2>(mesh, u, 1, [](const VecN<2>& x, Real* v) {
    v[0] = linearFn<2>(x);  // 1 + 2x + 3y
  });
  for (int r = 0; r < p; ++r)
    std::fill(ones[r].begin(), ones[r].end(), 1.0);
  fem::massMatvec(mesh, u, Mu);
  // ∫ (1 + 2x + 3y) over [0,1]^2 = 1 + 1 + 1.5 = 3.5.
  EXPECT_NEAR(mesh.dot(ones, Mu), 3.5, 1e-12);
}

TEST_P(MeshP, StiffnessAnnihilatesConstants) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<3>(comm, interfaceTree<3>(1, 4));
  auto mesh = Mesh<3>::build(comm, dt);
  Field c = mesh.makeField(), Kc = mesh.makeField();
  for (int r = 0; r < p; ++r) std::fill(c[r].begin(), c[r].end(), 4.2);
  fem::stiffnessMatvec(mesh, c, Kc);
  EXPECT_NEAR(mesh.maxAbs(Kc), 0.0, 1e-12);
}

TEST_P(MeshP, StiffnessEnergyOfLinearField) {
  const int p = GetParam().ranks;
  sim::SimComm comm(p, sim::Machine::loopback());
  auto dt = makeDistTree<2>(comm, interfaceTree<2>(2, 6));
  auto mesh = Mesh<2>::build(comm, dt);
  Field u = mesh.makeField(), Ku = mesh.makeField();
  fem::setByPosition<2>(mesh, u, 1, [](const VecN<2>& x, Real* v) {
    v[0] = linearFn<2>(x);  // grad = (2,3)
  });
  fem::stiffnessMatvec(mesh, u, Ku);
  // u^T K u = ∫ |grad u|^2 = 4 + 9 = 13 exactly (u is in the FE space).
  EXPECT_NEAR(mesh.dot(u, Ku), 13.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Ranks, MeshP,
                         ::testing::Values(MeshCase{1}, MeshCase{2},
                                           MeshCase{3}, MeshCase{5}));

// MATVEC must be partition-invariant: identical results by global id for
// any rank count.
TEST(MeshInvariance, MassMatvecPartitionInvariant) {
  auto run = [](int p) {
    sim::SimComm comm(p, sim::Machine::loopback());
    auto dt = DistTree<2>::fromGlobal(comm, interfaceTree<2>(2, 6));
    auto mesh = Mesh<2>::build(comm, dt);
    Field u = mesh.makeField(), Mu = mesh.makeField();
    fem::setByPosition<2>(mesh, u, 1, [](const VecN<2>& x, Real* v) {
      v[0] = std::sin(3 * x[0]) * std::cos(2 * x[1]);
    });
    fem::massMatvec(mesh, u, Mu);
    std::map<std::pair<std::uint32_t, std::uint32_t>, Real> byKey;
    for (int r = 0; r < p; ++r) {
      const auto& rm = mesh.rank(r);
      for (std::size_t li = 0; li < rm.nNodes(); ++li)
        byKey[{rm.nodeKeys[li][0], rm.nodeKeys[li][1]}] = Mu[r][li];
    }
    return byKey;
  };
  auto one = run(1);
  auto four = run(4);
  ASSERT_EQ(one.size(), four.size());
  for (const auto& [k, v] : one) {
    ASSERT_TRUE(four.count(k));
    EXPECT_NEAR(four[k], v, 1e-12);
  }
}

}  // namespace
}  // namespace pt
