#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "apps/fields.hpp"
#include "chns/solver.hpp"

namespace pt {
namespace {

chns::ChnsOptions<2> baseOptions() {
  chns::ChnsOptions<2> opt;
  opt.params.Re = 50;
  opt.params.We = 5;
  opt.params.Pe = 50;
  opt.params.Cn = 0.04;
  opt.dt = 2e-3;
  opt.blocksPerStep = 2;
  return opt;
}

chns::ChnsSolver<2> makeDropSolver(sim::SimComm& comm, Level L,
                                   chns::ChnsOptions<2> opt) {
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(L));
  chns::ChnsSolver<2> solver(comm, std::move(tree), std::move(opt));
  solver.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25,
                            solver.options().params.Cn);
  });
  return solver;
}

TEST(Params, MixtureLaws) {
  chns::Params P;
  P.rhoPlus = 1.0;
  P.rhoMinus = 0.1;
  EXPECT_DOUBLE_EQ(P.rho(1.0), 1.0);
  EXPECT_DOUBLE_EQ(P.rho(-1.0), 0.1);
  EXPECT_NEAR(P.rho(0.0), 0.55, 1e-12);
  P.etaPlus = 2.0;
  P.etaMinus = 1.0;
  EXPECT_DOUBLE_EQ(P.eta(1.0), 1.0);   // normalized by etaPlus
  EXPECT_DOUBLE_EQ(P.eta(-1.0), 0.5);
  // Degenerate mobility vanishes (to the floor) in pure phases.
  EXPECT_NEAR(P.mobility(1.0), P.mobilityFloor, 1e-12);
  EXPECT_NEAR(P.mobility(0.0), 1.0 + P.mobilityFloor, 1e-12);
  // Double well.
  EXPECT_DOUBLE_EQ(chns::Params::psi(1.0), 0.0);
  EXPECT_DOUBLE_EQ(chns::Params::psi(-1.0), 0.0);
  EXPECT_GT(chns::Params::psi(0.0), 0.0);
  EXPECT_DOUBLE_EQ(chns::Params::dpsi(1.0), 0.0);
  EXPECT_DOUBLE_EQ(chns::Params::d2psi(0.0), -1.0);
}

TEST(ChnsSolver, UniformPhaseStaysAtRest) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
  auto opt = baseOptions();
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  s.setInitialCondition([](const VecN<2>&) { return 1.0; });
  for (int i = 0; i < 2; ++i) s.step();
  EXPECT_LT(s.maxVelocity(), 1e-8);
  // phi stays in the pure phase.
  for (int r = 0; r < 2; ++r)
    for (Real v : s.phi()[r]) EXPECT_NEAR(v, 1.0, 1e-6);
}

TEST(ChnsSolver, DropMassConserved) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto s = makeDropSolver(comm, 5, baseOptions());
  const Real m0 = s.phiIntegral();
  for (int i = 0; i < 3; ++i) s.step();
  EXPECT_TRUE(s.lastChNewton_.converged);
  const Real m1 = s.phiIntegral();
  EXPECT_NEAR(m1, m0, 5e-6 * std::abs(m0) + 5e-8);
}

TEST(ChnsSolver, EnergyDecaysForRelaxingInterface) {
  // A square "drop" relaxes toward a circle: the Ginzburg-Landau energy
  // must decrease monotonically under CHNS dynamics.
  sim::SimComm comm(1, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(5));
  auto opt = baseOptions();
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    // Rounded square via max-metric distance.
    const Real dx = std::abs(x[0] - 0.5), dy = std::abs(x[1] - 0.5);
    return apps::tanhProfile(std::max(dx, dy) - 0.22, opt.params.Cn);
  });
  Real e = s.freeEnergy();
  for (int i = 0; i < 3; ++i) {
    s.step();
    const Real eNew = s.freeEnergy();
    EXPECT_LT(eNew, e + 1e-10) << "step " << i;
    e = eNew;
  }
}

TEST(ChnsSolver, PhaseFieldStaysNearBounds) {
  sim::SimComm comm(1, sim::Machine::loopback());
  auto s = makeDropSolver(comm, 5, baseOptions());
  for (int i = 0; i < 3; ++i) s.step();
  Real lo = 1e9, hi = -1e9;
  for (Real v : s.phi()[0]) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(lo, -1.1);
  EXPECT_LT(hi, 1.1);
}

TEST(ChnsSolver, VelocityIsApproximatelySolenoidal) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto opt = baseOptions();
  // Density contrast + surface tension drive a flow.
  opt.params.rhoMinus = 0.2;
  auto s = makeDropSolver(comm, 5, opt);
  for (int i = 0; i < 2; ++i) s.step();
  EXPECT_TRUE(s.lastPp_.converged);
  const Real vmax = s.maxVelocity();
  if (vmax > 1e-12) {
    // Projection reduces divergence well below the velocity scale over h.
    EXPECT_LT(s.divergenceNorm(), 40.0 * vmax);
  }
}

TEST(ChnsSolver, LaplacePressureJumpInsideDrop) {
  // Static drop: surface tension must produce higher pressure inside the
  // drop than outside (Young-Laplace). Magnitude is scheme-dependent; the
  // *sign* validates the surface-tension coupling.
  sim::SimComm comm(1, sim::Machine::loopback());
  auto opt = baseOptions();
  opt.params.We = 2;  // strong surface tension
  auto s = makeDropSolver(comm, 5, opt);
  for (int i = 0; i < 4; ++i) s.step();
  // Probe pressure at the drop center and in a far corner.
  const auto& rm = s.mesh().rank(0);
  Real pIn = 0, pOut = 0;
  for (std::size_t li = 0; li < rm.nNodes(); ++li) {
    const auto x = nodeCoords(rm.nodeKeys[li]);
    if (std::hypot(x[0] - 0.5, x[1] - 0.5) < 0.05) pIn = s.pressure()[0][li];
    if (x[0] < 0.05 && x[1] < 0.05) pOut = s.pressure()[0][li];
  }
  EXPECT_GT(pIn, pOut);
}

TEST(ChnsSolver, AllInnerSolversConverge) {
  sim::SimComm comm(3, sim::Machine::loopback());
  auto opt = baseOptions();
  opt.params.rhoMinus = 0.5;
  opt.params.etaMinus = 0.5;
  auto s = makeDropSolver(comm, 5, opt);
  s.step();
  EXPECT_TRUE(s.lastChNewton_.converged);
  EXPECT_TRUE(s.lastNs_.converged);
  EXPECT_TRUE(s.lastPp_.converged);
  EXPECT_GT(s.lastVuIterations_, 0);
  EXPECT_EQ(s.telemetry().metrics.counter("chNewtonUnconverged").value(), 0);
  // Per-phase timers were populated (Fig 5's decomposition).
  EXPECT_GT(s.timers()["ch-solve"].seconds(), 0.0);
  EXPECT_GT(s.timers()["ns-solve"].seconds(), 0.0);
  EXPECT_GT(s.timers()["pp-solve"].seconds(), 0.0);
  EXPECT_GT(s.timers()["vu-solve"].seconds(), 0.0);
}

// A zero tolerance is never met, so every CH Newton block runs to its cap
// and chNewtonUnconverged counts each one.
TEST(ChnsSolver, CountsUnconvergedChNewtonBlocks) {
  auto opt = baseOptions();
  opt.chNewton.rtol = 0;
  opt.chNewton.atol = 0;
  opt.chNewton.maxIterations = 2;
  sim::SimComm comm(3, sim::Machine::loopback());
  auto s = makeDropSolver(comm, 4, opt);
  const int steps = 2;
  for (int i = 0; i < steps; ++i) s.step();
  EXPECT_EQ(s.telemetry().metrics.counter("chNewtonUnconverged").value(),
            steps * opt.blocksPerStep);
}

TEST(ChnsSolver, PartitionInvarianceOfDiagnostics) {
  auto run = [](int p) {
    sim::SimComm comm(p, sim::Machine::loopback());
    auto opt = baseOptions();
    auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
    chns::ChnsSolver<2> s(comm, std::move(tree), opt);
    s.setInitialCondition([&](const VecN<2>& x) {
      return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, opt.params.Cn);
    });
    s.step();
    return std::make_pair(s.phiIntegral(), s.freeEnergy());
  };
  auto [m1, e1] = run(1);
  auto [m2, e2] = run(3);
  EXPECT_NEAR(m1, m2, 1e-7 * std::abs(m1) + 1e-10);
  EXPECT_NEAR(e1, e2, 1e-5 * std::abs(e1) + 1e-8);
}

TEST(ChnsSolver, RemeshWithLocalCahnKeepsPhysicsSane) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto opt = baseOptions();
  opt.remeshEvery = 1;
  opt.coarseLevel = 3;
  opt.interfaceLevel = 5;
  opt.featureLevel = 6;
  opt.referenceLevel = 6;
  opt.identify.cnCoarse = opt.params.Cn;
  opt.identify.cnFine = opt.params.Cn / 2;
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(5));
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });
  const Real m0 = s.phiIntegral();
  const std::size_t elemsBefore = s.mesh().globalElemCount();
  for (int i = 0; i < 2; ++i) s.step();  // remeshes after each step
  const std::size_t elemsAfter = s.mesh().globalElemCount();
  EXPECT_NE(elemsBefore, elemsAfter);  // adaptivity actually engaged
  EXPECT_TRUE(isBalanced(s.tree().gather()));
  // Mass approximately conserved across solve + remesh + transfer.
  EXPECT_NEAR(s.phiIntegral(), m0, 0.02 * std::abs(m0) + 1e-6);
  // phi remains bounded.
  Real lo = 1e9, hi = -1e9;
  for (int r = 0; r < 2; ++r)
    for (Real v : s.phi()[r]) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  EXPECT_GT(lo, -1.2);
  EXPECT_LT(hi, 1.2);
}

TEST(ChnsSolver, BuoyantDropRises) {
  // rhoMinus < rhoPlus with gravity: the light (phi = -1) drop drifts up.
  sim::SimComm comm(1, sim::Machine::loopback());
  auto opt = baseOptions();
  opt.params.rhoMinus = 0.3;
  opt.params.Fr = 0.5;
  opt.params.gravityDir = 1;  // gravity along -y
  opt.dt = 2e-3;
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(5));
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.4}}, 0.15, opt.params.Cn);
  });
  auto centroidY = [&]() {
    // y-centroid of the liquid indicator (1 - phi)/2.
    Real num = 0, den = 0;
    const auto& rm = s.mesh().rank(0);
    Field ind = s.mesh().makeField(1), Mi = s.mesh().makeField(1);
    for (std::size_t li = 0; li < rm.nNodes(); ++li)
      ind[0][li] = 0.5 * (1.0 - s.phi()[0][li]);
    fem::massMatvec(s.mesh(), ind, Mi);
    for (std::size_t li = 0; li < rm.nNodes(); ++li) {
      const auto x = nodeCoords(rm.nodeKeys[li]);
      num += x[1] * Mi[0][li];
      den += Mi[0][li];
    }
    return num / den;
  };
  const Real y0 = centroidY();
  for (int i = 0; i < 5; ++i) s.step();
  EXPECT_GT(centroidY(), y0);  // buoyant rise
  EXPECT_GT(s.maxVelocity(), 1e-6);
}


TEST(ChnsSolver, MultiLevelCnStagesRefineByFeatureSize) {
  // Two drops of different sizes: the tiny one is caught by the shallow
  // stage (deepest level), the medium one only by the deep-erosion stage.
  sim::SimComm comm(2, sim::Machine::loopback());
  auto opt = baseOptions();
  opt.params.Cn = 0.02;
  opt.coarseLevel = 3;
  opt.interfaceLevel = 5;
  opt.referenceLevel = 7;
  localcahn::CnStage<2> deep, shallow;
  deep.params.erodeSteps = 20;     // deep: kills medium + tiny drops
  deep.params.extraDilateSteps = 3;
  deep.params.cnErodeSteps = 0;
  deep.params.delta = -0.6;
  deep.params.cnCoarse = opt.params.Cn;
  deep.params.cnFine = opt.params.Cn / 2;
  deep.cn = opt.params.Cn / 2;
  shallow.params.erodeSteps = 7;   // kills only the tiny drop (at L6 and L7)
  shallow.params.extraDilateSteps = 3;
  shallow.params.cnErodeSteps = 0;
  shallow.params.delta = -0.6;
  shallow.params.cnCoarse = opt.params.Cn;
  shallow.params.cnFine = opt.params.Cn / 4;
  shallow.cn = opt.params.Cn / 4;
  opt.cnStages = {deep, shallow};
  opt.cnStageLevels = {Level(6), Level(7)};
  // Start at L6: a feature must contain at least one fully-immersed
  // element to be detectable (Eq 6), which fixes the minimum resolution.
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(6));
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  auto ic = [&](const VecN<2>& x) {
    return apps::phaseUnion(
        apps::dropPhi<2>(x, VecN<2>{{0.25, 0.5}}, 0.05, 0.012),
        apps::dropPhi<2>(x, VecN<2>{{0.7, 0.5}}, 0.16, 0.012));
  };
  s.setInitialCondition(ic);
  // One identification pass from the clean uniform mesh. (Subsequent
  // passes on the mixed-level mesh are sensitive to the erosion/dilation
  // depths — the hyper-parameter dependence the paper acknowledges.)
  s.remeshNow();
  // The tiny drop region must reach level 7, the medium one level 6, and
  // the elemental Cn must carry three distinct values.
  int tinyMax = 0, mediumMax = 0;
  std::set<Real> cnValues;
  for (int r = 0; r < 2; ++r) {
    const auto& rm = s.mesh().rank(r);
    for (std::size_t e = 0; e < rm.nElems(); ++e) {
      auto c = rm.elems[e].centerCoords();
      if (std::hypot(c[0] - 0.25, c[1] - 0.5) < 0.08)
        tinyMax = std::max<int>(tinyMax, rm.elems[e].level);
      if (std::hypot(c[0] - 0.7, c[1] - 0.5) < 0.12)
        mediumMax = std::max<int>(mediumMax, rm.elems[e].level);
      cnValues.insert(s.elemCn()[r][e]);
    }
  }
  EXPECT_EQ(tinyMax, 7);
  EXPECT_EQ(mediumMax, 6);
  EXPECT_GE(cnValues.size(), 3u);  // ambient + two stage values
}

TEST(ChnsSolver, OneCnStageRemeshesLikeTheSingleLevelPath) {
  // A single Cn stage with the single-level identifier's parameters must
  // reproduce the single-level remesh: the same leaves, the same elemental
  // Cn, and the same modeled time plus the staged branch's own two
  // per-element passes (the stage-flag copy and the stage-to-Cn map).
  auto opt = baseOptions();
  opt.params.Cn = 0.02;
  opt.coarseLevel = 3;
  opt.interfaceLevel = 5;
  opt.featureLevel = 6;
  opt.referenceLevel = 6;
  opt.identify.erodeSteps = 7;
  opt.identify.extraDilateSteps = 3;
  opt.identify.cnErodeSteps = 0;
  opt.identify.delta = -0.6;
  opt.identify.cnCoarse = opt.params.Cn;
  opt.identify.cnFine = opt.params.Cn / 2;
  auto staged = opt;
  staged.cnStages = {{opt.identify, opt.identify.cnFine}};
  staged.cnStageLevels = {opt.featureLevel};

  auto ic = [](const VecN<2>& x) {
    return apps::phaseUnion(
        apps::dropPhi<2>(x, VecN<2>{{0.25, 0.5}}, 0.05, 0.012),
        apps::dropPhi<2>(x, VecN<2>{{0.7, 0.5}}, 0.16, 0.012));
  };
  sim::SimComm c1(4, sim::Machine::loopback());
  chns::ChnsSolver<2> single(
      c1, DistTree<2>::fromGlobal(c1, uniformTree<2>(6)), opt);
  single.setInitialCondition(ic);
  single.remeshNow();
  sim::SimComm c2(4, sim::Machine::loopback());
  chns::ChnsSolver<2> multi(
      c2, DistTree<2>::fromGlobal(c2, uniformTree<2>(6)), staged);
  multi.setInitialCondition(ic);
  multi.remeshNow();

  std::size_t fine = 0;
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(single.tree().localOf(r), multi.tree().localOf(r)) << r;
    EXPECT_EQ(single.elemCn()[r], multi.elemCn()[r]) << r;
    for (Real cn : single.elemCn()[r]) fine += cn == opt.identify.cnFine;
  }
  EXPECT_GT(fine, 0u) << "the identifier must flag the small drop";
  const double stagePasses =
      2.0 * (uniformTree<2>(6).size() / 4) / c1.machine().computeRate;
  EXPECT_NEAR(c2.time() - c1.time(), stagePasses, 1e-6 * stagePasses);
}

}  // namespace
}  // namespace pt
