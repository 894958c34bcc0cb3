#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "apps/fields.hpp"
#include "localcahn/identifier.hpp"
#include "localcahn/uniform.hpp"
#include "octree/balance.hpp"

namespace pt {
namespace {

using localcahn::Stage;

// ---- Uniform-mesh reference (Sec II-B1, Fig 1) ------------------------------

std::vector<Real> diskField(int n, Real cx, Real cy, Real R, Real eps) {
  std::vector<Real> phi(n * n);
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      const Real px = (x + 0.5) / n, py = (y + 0.5) / n;
      const Real r = std::hypot(px - cx, py - cy);
      phi[y * n + x] = apps::tanhProfile(r - R, eps);
    }
  return phi;
}

TEST(UniformIdentify, SmallDropIsDetected) {
  const int n = 64;
  auto phi = diskField(n, 0.5, 0.5, 0.05, 0.01);
  auto roi = localcahn::identifyUniform(phi, n, n,
                                        {.delta = -0.8,
                                         .immersedNegative = true,
                                         .erodeSteps = 3,
                                         .extraDilateSteps = 3});
  EXPECT_GT(roi.count(), 0);
}

TEST(UniformIdentify, LargeDropIsNotDetected) {
  const int n = 64;
  auto phi = diskField(n, 0.5, 0.5, 0.3, 0.01);
  auto roi = localcahn::identifyUniform(phi, n, n,
                                        {.delta = -0.8,
                                         .immersedNegative = true,
                                         .erodeSteps = 3,
                                         .extraDilateSteps = 3});
  EXPECT_EQ(roi.count(), 0);
}

TEST(UniformIdentify, FilamentAttachedToBlobDetected) {
  // The Fig 1b case: a thin filament hanging off a large blob. Connected
  // components would see one object; erosion/dilation flags the filament.
  const int n = 96;
  std::vector<Real> phi(n * n);
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      VecN<2> p{{(x + 0.5) / n, (y + 0.5) / n}};
      phi[y * n + x] = apps::lollipopPhi<2>(p, 0.008);
    }
  auto roi = localcahn::identifyUniform(phi, n, n,
                                        {.delta = -0.8,
                                         .immersedNegative = true,
                                         .erodeSteps = 3,
                                         .extraDilateSteps = 4});
  EXPECT_GT(roi.count(), 0);
  // Detected pixels lie on the filament (x > 0.45), not the blob interior.
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x)
      if (roi.at(x, y)) {
        EXPECT_GT((x + 0.5) / n, 0.42);
      }
}

TEST(UniformIdentify, ErodeDilateMorphologyBasics) {
  localcahn::BinaryImage img(9, 9);
  for (int y = 3; y <= 5; ++y)
    for (int x = 3; x <= 5; ++x) img.at(x, y) = 1;  // 3x3 square
  auto e = localcahn::erode(img);
  EXPECT_EQ(e.count(), 1);  // only the center survives
  auto d = localcahn::dilate(img);
  EXPECT_EQ(d.count(), 25);  // grows to 5x5
  auto e2 = localcahn::erodeN(img, 2);
  EXPECT_EQ(e2.count(), 0);  // square vanishes
  // Dilation cannot resurrect an empty image.
  EXPECT_EQ(localcahn::dilateN(e2, 5).count(), 0);
}

// ---- Octree identification --------------------------------------------------

template <int DIM>
Mesh<DIM> uniformMesh(sim::SimComm& comm, Level L) {
  auto dt = DistTree<DIM>::fromGlobal(comm, uniformTree<DIM>(L));
  return Mesh<DIM>::build(comm, dt);
}

Field phiOnMesh(const Mesh<2>& mesh, const std::function<Real(const VecN<2>&)>& fn) {
  Field phi = mesh.makeField(1);
  fem::setByPosition<2>(mesh, phi, 1,
                        [&](const VecN<2>& x, Real* v) { v[0] = fn(x); });
  return phi;
}

TEST(OctreeIdentify, ThresholdIsBinary) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto mesh = uniformMesh<2>(comm, 4);
  Field phi = phiOnMesh(mesh, [](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.2, 0.02);
  });
  Field bw = localcahn::threshold(mesh, phi, -0.8, true);
  for (int r = 0; r < 2; ++r)
    for (Real v : bw[r]) EXPECT_TRUE(v == 1.0 || v == -1.0);
}

TEST(OctreeIdentify, ErosionShrinksDilationGrows) {
  sim::SimComm comm(1, sim::Machine::loopback());
  const Level L = 5;
  auto mesh = uniformMesh<2>(comm, L);
  Field phi = phiOnMesh(mesh, [](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, 0.015);
  });
  Field bw = localcahn::threshold(mesh, phi, -0.8, true);
  auto countPlus = [&](const Field& f) {
    long n = 0;
    for (Real v : f[0]) n += (v > 0);
    return n;
  };
  const long n0 = countPlus(bw);
  Field er = localcahn::erodeDilate(mesh, bw, Stage::kErosion, 1, L);
  EXPECT_LT(countPlus(er), n0);
  Field di = localcahn::erodeDilate(mesh, er, Stage::kDilation, 2, L);
  EXPECT_GT(countPlus(di), countPlus(er));
  EXPECT_GE(countPlus(di), n0);  // extra dilation overshoots the original
}

TEST(OctreeIdentify, SmallDropGetsFineCahnLargeDropDoesNot) {
  sim::SimComm comm(2, sim::Machine::loopback());
  const Level L = 5;
  auto mesh = uniformMesh<2>(comm, L);
  // Two drops: tiny at (0.25, 0.25), large at (0.7, 0.7).
  Field phi = phiOnMesh(mesh, [](const VecN<2>& x) {
    return localcahn::BinaryImage{}, apps::phaseUnion(
        apps::dropPhi<2>(x, VecN<2>{{0.25, 0.25}}, 0.06, 0.01),
        apps::dropPhi<2>(x, VecN<2>{{0.7, 0.7}}, 0.22, 0.01));
  });
  localcahn::IdentifyParams p;
  p.erodeSteps = 2;
  p.extraDilateSteps = 3;
  p.cnErodeSteps = 0;
  p.cnExtraDilateSteps = 1;
  auto cn = localcahn::identifyLocalCahn(mesh, phi, L, p);
  // Gather marked element centers.
  int fineNearSmall = 0, fineNearLarge = 0, fineTotal = 0;
  for (int r = 0; r < 2; ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t e = 0; e < rm.nElems(); ++e) {
      if (cn[r][e] != p.cnFine) continue;
      ++fineTotal;
      auto c = rm.elems[e].centerCoords();
      if (std::hypot(c[0] - 0.25, c[1] - 0.25) < 0.15) ++fineNearSmall;
      if (std::hypot(c[0] - 0.7, c[1] - 0.7) < 0.16) ++fineNearLarge;
    }
  }
  EXPECT_GT(fineNearSmall, 0);
  EXPECT_EQ(fineNearLarge, 0);
  EXPECT_EQ(fineTotal, fineNearSmall);  // nothing marked elsewhere
}

TEST(OctreeIdentify, PartitionInvariant) {
  auto run = [](int p) {
    sim::SimComm comm(p, sim::Machine::loopback());
    auto mesh = uniformMesh<2>(comm, 5);
    Field phi = phiOnMesh(mesh, [](const VecN<2>& x) {
      return apps::lollipopPhi<2>(x, 0.01);
    });
    localcahn::IdentifyParams prm;
    prm.erodeSteps = 2;
    prm.extraDilateSteps = 3;
    auto cn = localcahn::identifyLocalCahn(mesh, phi, 5, prm);
    std::map<std::pair<std::uint32_t, std::uint32_t>, Real> byAnchor;
    for (int r = 0; r < p; ++r) {
      const auto& rm = mesh.rank(r);
      for (std::size_t e = 0; e < rm.nElems(); ++e)
        byAnchor[{rm.elems[e].x[0], rm.elems[e].x[1]}] = cn[r][e];
    }
    return byAnchor;
  };
  auto s1 = run(1);
  auto s4 = run(4);
  ASSERT_EQ(s1.size(), s4.size());
  for (const auto& [k, v] : s1) EXPECT_DOUBLE_EQ(s4[k], v);
}

TEST(OctreeIdentify, LevelCountersDelayCoarseElements) {
  // On a mesh one level coarser than the reference level, a single erosion
  // step must do nothing (counter waits); two steps erode once.
  sim::SimComm comm(1, sim::Machine::loopback());
  const Level L = 4;
  auto mesh = uniformMesh<2>(comm, L);
  Field phi = phiOnMesh(mesh, [](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, 0.02);
  });
  Field bw = localcahn::threshold(mesh, phi, -0.8, true);
  auto countPlus = [&](const Field& f) {
    long n = 0;
    for (Real v : f[0]) n += (v > 0);
    return n;
  };
  const long n0 = countPlus(bw);
  // Reference level L+1: every element waits one visit.
  Field one = localcahn::erodeDilate(mesh, bw, Stage::kErosion, 1, L + 1);
  EXPECT_EQ(countPlus(one), n0);  // nothing eroded yet
  Field two = localcahn::erodeDilate(mesh, bw, Stage::kErosion, 2, L + 1);
  EXPECT_LT(countPlus(two), n0);  // eroded exactly one layer
  // And that equals a single step at the native reference level.
  Field native = localcahn::erodeDilate(mesh, bw, Stage::kErosion, 1, L);
  EXPECT_EQ(countPlus(two), countPlus(native));
}

TEST(OctreeIdentify, AdaptiveMeshWithHangingNodes) {
  // Identification must run cleanly on a 2:1-balanced adaptive mesh where
  // the drop sits in the refined region (hanging nodes at the transition).
  sim::SimComm comm(3, sim::Machine::loopback());
  OctList<2> tree;
  buildTree<2>(
      Octant<2>::root(),
      [](const Octant<2>& o) {
        auto c = o.centerCoords();
        const Real r = std::hypot(c[0] - 0.4, c[1] - 0.4);
        return r < 0.25 ? Level(6) : Level(3);
      },
      tree);
  tree = balanceTree(tree);
  auto dt = DistTree<2>::fromGlobal(comm, tree);
  auto mesh = Mesh<2>::build(comm, dt);
  Field phi = phiOnMesh(mesh, [](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.4, 0.4}}, 0.05, 0.01);
  });
  localcahn::IdentifyParams p;
  p.erodeSteps = 2;
  p.extraDilateSteps = 3;
  auto cn = localcahn::identifyLocalCahn(mesh, phi, 6, p);
  int fine = 0;
  for (int r = 0; r < 3; ++r)
    for (Real v : cn[r]) fine += (v == p.cnFine);
  EXPECT_GT(fine, 0);
}

TEST(OctreeIdentify, IslandRemovalDropsIsolatedElement) {
  sim::SimComm comm(1, sim::Machine::loopback());
  const Level L = 4;
  auto mesh = uniformMesh<2>(comm, L);
  const auto& rm = mesh.rank(0);
  localcahn::ElemField cn(1);
  cn[0].assign(rm.nElems(), 0.02);
  cn[0][rm.nElems() / 2] = 0.01;  // one isolated fine-Cn element
  auto out = localcahn::erodeDilateCahn(mesh, cn, L, 0.01, 0.02,
                                        /*erodeSteps=*/1,
                                        /*extraDilateSteps=*/2);
  for (Real v : out[0]) EXPECT_DOUBLE_EQ(v, 0.02);  // island removed
}

TEST(OctreeIdentify, PaddingGrowsRegions) {
  sim::SimComm comm(1, sim::Machine::loopback());
  const Level L = 4;
  auto mesh = uniformMesh<2>(comm, L);
  const auto& rm = mesh.rank(0);
  localcahn::ElemField cn(1);
  cn[0].assign(rm.nElems(), 0.02);
  // Mark a 3x3 block of elements (big enough to survive one erosion).
  int marked = 0;
  for (std::size_t e = 0; e < rm.nElems(); ++e) {
    auto c = rm.elems[e].centerCoords();
    if (std::abs(c[0] - 0.5) < 0.1 && std::abs(c[1] - 0.5) < 0.1) {
      cn[0][e] = 0.01;
      ++marked;
    }
  }
  ASSERT_GT(marked, 4);
  auto out = localcahn::erodeDilateCahn(mesh, cn, L, 0.01, 0.02, 1, 3);
  int after = 0;
  for (Real v : out[0]) after += (v == 0.01);
  EXPECT_GT(after, marked);  // padded beyond the original block
}

TEST(OctreeIdentify, MultiLevelCahnStages) {
  sim::SimComm comm(1, sim::Machine::loopback());
  const Level L = 5;
  auto mesh = uniformMesh<2>(comm, L);
  // Tiny drop (stage 2: aggressive erosion finds it) + medium drop
  // (stage 1 only).
  Field phi = phiOnMesh(mesh, [](const VecN<2>& x) {
    // Tiny drop: thresholded core ~1.5 cells (vanishes under 2 erosions).
    // Medium drop: core ~3.8 cells (survives 2, dies under 5).
    return apps::phaseUnion(
        apps::dropPhi<2>(x, VecN<2>{{0.25, 0.5}}, 0.06, 0.006),
        apps::dropPhi<2>(x, VecN<2>{{0.7, 0.5}}, 0.13, 0.006));
  });
  localcahn::CnStage<2> s1, s2;
  s1.params.erodeSteps = 5;  // deep erosion: kills medium and tiny drops
  s1.params.extraDilateSteps = 3;
  s1.params.cnErodeSteps = 0;
  s1.cn = 0.015;
  s2.params.erodeSteps = 2;  // shallow: kills only the tiny drop
  s2.params.extraDilateSteps = 3;
  s2.params.cnErodeSteps = 0;
  s2.cn = 0.0075;
  auto stages = localcahn::identifyMultiLevelCahn<2>(mesh, phi, L, {s1, s2});
  int tinyStage = 0, mediumStage = 0;
  const auto& rm = mesh.rank(0);
  for (std::size_t e = 0; e < rm.nElems(); ++e) {
    auto c = rm.elems[e].centerCoords();
    if (std::hypot(c[0] - 0.25, c[1] - 0.5) < 0.03)
      tinyStage = std::max(tinyStage, stages[0][e]);
    if (std::hypot(c[0] - 0.7, c[1] - 0.5) < 0.05)
      mediumStage = std::max(mediumStage, stages[0][e]);
  }
  EXPECT_EQ(tinyStage, 2);   // deepest stage wins for the tiny drop
  EXPECT_EQ(mediumStage, 1);  // medium drop only flagged by deep erosion
}

// The multi-level passes run through the rank loop and charge their
// per-element work: two stages cost more than their two identifyLocalCahn
// runs, and mapping stage indices to Cn values advances the clock.
TEST(OctreeIdentify, MultiLevelCahnChargesItsPasses) {
  const Level L = 5;
  localcahn::CnStage<2> s1, s2;
  s1.params.erodeSteps = 5;
  s1.cn = 0.015;
  s2.params.erodeSteps = 2;
  s2.cn = 0.0075;
  auto clockOf = [&](int p, const auto& run) {
    sim::SimComm comm(p, sim::Machine::loopback());
    auto mesh = uniformMesh<2>(comm, L);
    Field phi = phiOnMesh(mesh, [](const VecN<2>& x) {
      return apps::dropPhi<2>(x, VecN<2>{{0.4, 0.5}}, 0.13, 0.006);
    });
    const double t0 = comm.time();
    run(mesh, phi);
    return comm.time() - t0;
  };
  const double t1 = clockOf(1, [&](const Mesh<2>& m, const Field& phi) {
    localcahn::identifyLocalCahn(m, phi, L, s1.params);
  });
  const double t2 = clockOf(1, [&](const Mesh<2>& m, const Field& phi) {
    localcahn::identifyLocalCahn(m, phi, L, s2.params);
  });
  const double multi = clockOf(1, [&](const Mesh<2>& m, const Field& phi) {
    localcahn::identifyMultiLevelCahn<2>(m, phi, L, {s1, s2});
  });
  EXPECT_GT(multi, (t1 + t2) * (1 + 1e-9));
  for (int p : {1, 3}) {
    const double mapOnly = clockOf(p, [&](const Mesh<2>& m, const Field&) {
      sim::PerRank<std::vector<int>> idx(p);
      for (int r = 0; r < p; ++r) idx[r].assign(m.rank(r).nElems(), 1);
      auto cn = localcahn::cnFromStages<2>(m, idx, 0.02, {s1, s2});
      EXPECT_EQ(cn[0].front(), s1.cn);
    });
    EXPECT_GT(mapOnly, 0.0) << p << " ranks";
  }
}

TEST(OctreeIdentify, RefineLevelsFollowInterfaceAndFeatures) {
  sim::SimComm comm(1, sim::Machine::loopback());
  const Level L = 5;
  auto mesh = uniformMesh<2>(comm, L);
  Field phi = phiOnMesh(mesh, [](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.3, 0.3}}, 0.06, 0.012);
  });
  localcahn::IdentifyParams p;
  p.erodeSteps = 2;
  p.extraDilateSteps = 3;
  p.cnErodeSteps = 0;
  auto cn = localcahn::identifyLocalCahn(mesh, phi, L, p);
  auto want = localcahn::interfaceRefineLevels<2>(mesh, phi, cn, p.cnFine,
                                                  0.95, 3, 6, 8);
  const auto& rm = mesh.rank(0);
  bool sawFeature = false, sawInterface = false, sawCoarse = false;
  for (std::size_t e = 0; e < rm.nElems(); ++e) {
    auto c = rm.elems[e].centerCoords();
    const Real r = std::hypot(c[0] - 0.3, c[1] - 0.3);
    if (want[0][e] == 8) {
      sawFeature = true;
      EXPECT_LT(r, 0.12);  // feature refinement only near the drop
    } else if (want[0][e] == 6) {
      sawInterface = true;
    } else {
      // Coarse elements are the far field AND the pure-phase drop interior:
      // the paper refines only near the interface, even with reduced Cn.
      sawCoarse = true;
    }
  }
  EXPECT_TRUE(sawFeature);
  EXPECT_TRUE(sawCoarse);
  (void)sawInterface;
}

}  // namespace
}  // namespace pt
