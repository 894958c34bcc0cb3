#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <set>

#include "apps/fields.hpp"
#include "chns/params.hpp"
#include "chns/solve_family.hpp"
#include "chns/solver.hpp"
#include "fem/bc.hpp"
#include "fem/matvec.hpp"
#include "la/gmg.hpp"
#include "la/ksp.hpp"
#include "la/pc.hpp"
#include "octree/balance.hpp"
#include "support/thread_pool.hpp"

namespace pt {
namespace {

/// Dirichlet Poisson factory: each level discretizes -Laplace with the
/// boundary rows replaced by (scaled) identity.
template <int DIM>
la::GmgOpFactory<DIM> poissonFactory(std::deque<Field>& masks) {
  return [&masks](const Mesh<DIM>& mesh, int level) -> la::GmgLevelOps<DIM> {
    if (static_cast<int>(masks.size()) <= level) masks.resize(level + 1);
    masks[level] = fem::boundaryMask(mesh);
    const Field& mask = masks[level];
    la::LinOp<Field> K = [&mesh](const Field& x, Field& y) {
      fem::stiffnessMatvec(mesh, x, y);
    };
    la::GmgLevelOps<DIM> ops;
    ops.op = fem::dirichletOp(mesh, mask, K);
    ops.diag = la::assembleDiagonalBlocks<DIM>(
        mesh, 1, [](const Octant<DIM>& oct, Real* Ae) {
          const auto& refK = fem::refStiffness<DIM>();
          const Real kscale = (DIM == 2) ? 1.0 : oct.physSize();
          for (std::size_t k = 0; k < refK.size(); ++k)
            Ae[k] = refK[k] * kscale;
        });
    // Boundary rows act as identity; use unit diagonal there.
    for (int r = 0; r < mesh.nRanks(); ++r)
      for (std::size_t i = 0; i < mesh.rank(r).nNodes(); ++i)
        if (mask[r][i] != 0.0) ops.diag[r][i] = 1.0;
    return ops;
  };
}

TEST(Gmg, HierarchyShrinksByLevel) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(5));
  std::deque<Field> masks;
  la::Gmg<2> gmg(comm, tree, poissonFactory<2>(masks), {.levels = 4});
  ASSERT_GE(gmg.numLevels(), 3);
  for (int l = 1; l < gmg.numLevels(); ++l)
    EXPECT_LT(gmg.meshAt(l).globalElemCount(),
              gmg.meshAt(l - 1).globalElemCount());
  // Uniform 2D coarsening shrinks by ~4x per level.
  EXPECT_EQ(gmg.meshAt(1).globalElemCount(),
            gmg.meshAt(0).globalElemCount() / 4);
}

TEST(Gmg, VcycleReducesPoissonResidual) {
  sim::SimComm comm(1, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(5));
  std::deque<Field> masks;
  la::Gmg<2> gmg(comm, tree, poissonFactory<2>(masks), {.levels = 4});
  const Mesh<2>& mesh = gmg.meshAt(0);
  la::FieldSpace<2> S(mesh, 1);
  la::LinOp<Field> K = [&mesh](const Field& x, Field& y) {
    fem::stiffnessMatvec(mesh, x, y);
  };
  la::LinOp<Field> A = fem::dirichletOp(mesh, masks[0], K);
  Field f = mesh.makeField(), fw = mesh.makeField();
  fem::setByPosition<2>(mesh, f, 1, [](const VecN<2>& p, Real* v) {
    v[0] = std::sin(M_PI * p[0]) * std::sin(M_PI * p[1]);
  });
  fem::massMatvec(mesh, f, fw);
  fem::zeroMasked(mesh, masks[0], fw);
  // A few stationary V-cycle iterations must contract the residual hard.
  auto M = gmg.preconditioner();
  Field x = mesh.makeField(), r = mesh.makeField(), z = mesh.makeField(),
        Ax = mesh.makeField();
  A(x, Ax);
  S.sub(fw, Ax, r);
  const Real r0 = S.norm(r);
  for (int it = 0; it < 6; ++it) {
    M(r, z);
    S.axpy(x, 1.0, z);
    A(x, Ax);
    S.sub(fw, Ax, r);
  }
  EXPECT_LT(S.norm(r), 1e-3 * r0);  // > x1000 reduction in 6 cycles
}

TEST(Gmg, PreconditionerBeatsJacobiIterationCount) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(6));
  std::deque<Field> masks;
  la::Gmg<2> gmg(comm, tree, poissonFactory<2>(masks), {.levels = 5});
  const Mesh<2>& mesh = gmg.meshAt(0);
  la::FieldSpace<2> S(mesh, 1);
  la::LinOp<Field> K = [&mesh](const Field& x, Field& y) {
    fem::stiffnessMatvec(mesh, x, y);
  };
  la::LinOp<Field> A = fem::dirichletOp(mesh, masks[0], K);
  Field fw = mesh.makeField();
  {
    Field f = mesh.makeField();
    fem::setByPosition<2>(mesh, f, 1, [](const VecN<2>& p, Real* v) {
      v[0] = std::exp(p[0]) * (1 - p[1]);
    });
    fem::massMatvec(mesh, f, fw);
    fem::zeroMasked(mesh, masks[0], fw);
  }
  la::KspOptions opt{.rtol = 1e-9, .maxIterations = 600, .gmresRestart = 60};
  // Jacobi-preconditioned GMRES.
  Field diag = la::assembleDiagonalBlocks<2>(
      mesh, 1, [](const Octant<2>& oct, Real* Ae) {
        (void)oct;
        const auto& refK = fem::refStiffness<2>();
        for (std::size_t k = 0; k < refK.size(); ++k) Ae[k] = refK[k];
      });
  la::LinOp<Field> Mj = la::makeJacobi(mesh, 1, std::move(diag));
  Field xj = mesh.makeField();
  auto resJ = la::gmres(S, A, fw, xj, opt, &Mj);
  // GMG-preconditioned GMRES.
  la::LinOp<Field> Mg = gmg.preconditioner();
  Field xg = mesh.makeField();
  auto resG = la::gmres(S, A, fw, xg, opt, &Mg);
  EXPECT_TRUE(resJ.converged);
  EXPECT_TRUE(resG.converged);
  EXPECT_LT(resG.iterations, resJ.iterations / 3);  // level-independent-ish
  // Same solution.
  Field d = mesh.makeField();
  S.sub(xj, xg, d);
  EXPECT_LT(S.norm(d), 1e-6 * std::max(S.norm(xj), Real(1e-300)));
}

TEST(Gmg, VariableCoefficientPoissonOnAdaptiveMesh) {
  // The paper's actual target: the variable-density pressure Poisson
  // operator div( (1/rho(phi)) grad p ) on an adaptive interface mesh.
  sim::SimComm comm(2, sim::Machine::loopback());
  OctList<2> tree;
  buildTree<2>(
      Octant<2>::root(),
      [](const Octant<2>& o) {
        auto c = o.centerCoords();
        const Real d = std::abs(std::hypot(c[0] - 0.5, c[1] - 0.5) - 0.3);
        return d < 3.0 * o.physSize() ? Level(6) : Level(4);
      },
      tree);
  tree = balanceTree(tree);
  auto dist = DistTree<2>::fromGlobal(comm, tree);

  chns::Params P;
  P.rhoMinus = 0.1;  // 10x density contrast across the interface
  auto phiAt = [&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.3, 0.03);
  };
  std::deque<Field> masks;
  auto factory = [&](const Mesh<2>& mesh, int level) -> la::GmgLevelOps<2> {
    if (static_cast<int>(masks.size()) <= level) masks.resize(level + 1);
    masks[level] = fem::boundaryMask(mesh);
    const Field& mask = masks[level];
    la::LinOp<Field> W = [&mesh, &P, phiAt](const Field& x, Field& y) {
      fem::matvec<2>(mesh, x, y, 1,
                     [&](const Octant<2>& oct, const Real* in, Real* out) {
                       const Real coef =
                           1.0 / P.rho(phiAt(oct.centerCoords()));
                       Real tmp[4] = {};
                       fem::applyStiffness<2>(oct.physSize(), in, tmp);
                       for (int i = 0; i < 4; ++i) out[i] += coef * tmp[i];
                     });
    };
    la::GmgLevelOps<2> ops;
    ops.op = fem::dirichletOp(mesh, mask, W);
    ops.diag = la::assembleDiagonalBlocks<2>(
        mesh, 1, [&](const Octant<2>& oct, Real* Ae) {
          const Real coef = 1.0 / P.rho(phiAt(oct.centerCoords()));
          const auto& refK = fem::refStiffness<2>();
          for (std::size_t k = 0; k < refK.size(); ++k)
            Ae[k] = refK[k] * coef;
        });
    for (int r = 0; r < mesh.nRanks(); ++r)
      for (std::size_t i = 0; i < mesh.rank(r).nNodes(); ++i)
        if (mask[r][i] != 0.0) ops.diag[r][i] = 1.0;
    return ops;
  };
  la::Gmg<2> gmg(comm, dist, factory, {.levels = 3, .minLevel = 2});
  ASSERT_GE(gmg.numLevels(), 2);
  const Mesh<2>& mesh = gmg.meshAt(0);
  la::FieldSpace<2> S(mesh, 1);
  auto ops0 = factory(mesh, 0);
  Field b = mesh.makeField();
  fem::setByPosition<2>(mesh, b, 1, [](const VecN<2>& p, Real* v) {
    v[0] = p[0] - p[1];
  });
  fem::zeroMasked(mesh, masks[0], b);
  la::LinOp<Field> Mg = gmg.preconditioner();
  Field x = mesh.makeField();
  auto res = la::gmres(
      S, ops0.op, b, x, {.rtol = 1e-8, .maxIterations = 300}, &Mg);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 40);  // strong preconditioning despite 10x jump
}

/// 3D variable-coefficient factory on an adaptive (hanging-node) mesh:
/// div( (1/rho(phi)) grad p ) with Dirichlet boundary rows.
la::GmgOpFactory<3> rho3dFactory(const chns::Params& P,
                                 std::deque<Field>& masks) {
  auto phiAt = [](const VecN<3>& x) {
    return apps::dropPhi<3>(x, VecN<3>{{0.5, 0.5, 0.5}}, 0.3, 0.06);
  };
  return [&P, &masks, phiAt](const Mesh<3>& mesh,
                             int level) -> la::GmgLevelOps<3> {
    if (static_cast<int>(masks.size()) <= level) masks.resize(level + 1);
    masks[level] = fem::boundaryMask(mesh);
    const Field& mask = masks[level];
    la::LinOp<Field> W = [&mesh, &P, phiAt](const Field& x, Field& y) {
      fem::matvec<3>(mesh, x, y, 1,
                     [&](const Octant<3>& oct, const Real* in, Real* out) {
                       const Real coef =
                           1.0 / P.rho(phiAt(oct.centerCoords()));
                       Real tmp[8] = {};
                       fem::applyStiffness<3>(oct.physSize(), in, tmp);
                       for (int i = 0; i < 8; ++i) out[i] += coef * tmp[i];
                     });
    };
    la::GmgLevelOps<3> ops;
    ops.op = fem::dirichletOp(mesh, mask, W);
    ops.diag = la::assembleDiagonalBlocks<3>(
        mesh, 1, [&](const Octant<3>& oct, Real* Ae) {
          const Real coef = 1.0 / P.rho(phiAt(oct.centerCoords()));
          const auto& refK = fem::refStiffness<3>();
          for (std::size_t k = 0; k < refK.size(); ++k)
            Ae[k] = refK[k] * oct.physSize() * coef;
        });
    for (int r = 0; r < mesh.nRanks(); ++r)
      for (std::size_t i = 0; i < mesh.rank(r).nNodes(); ++i)
        if (mask[r][i] != 0.0) ops.diag[r][i] = 1.0;
    return ops;
  };
}

DistTree<3> adaptiveSphereTree(sim::SimComm& comm) {
  OctList<3> tree;
  buildTree<3>(
      Octant<3>::root(),
      [](const Octant<3>& o) {
        auto c = o.centerCoords();
        const Real d = std::abs(
            std::hypot(c[0] - 0.5, c[1] - 0.5, c[2] - 0.5) - 0.3);
        return d < 2.0 * o.physSize() ? Level(4) : Level(2);
      },
      tree);
  tree = balanceTree(tree);
  return DistTree<3>::fromGlobal(comm, tree);
}

TEST(Gmg, VariableCoefficientPoisson3DWithHangingNodes) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto dist = adaptiveSphereTree(comm);
  chns::Params P;
  P.rhoMinus = 0.1;  // 10x density contrast
  std::deque<Field> masks;
  auto factory = rho3dFactory(P, masks);
  la::Gmg<3> gmg(comm, dist, factory, {.levels = 3, .minLevel = 1});
  ASSERT_GE(gmg.numLevels(), 2);
  const Mesh<3>& mesh = gmg.meshAt(0);
  la::FieldSpace<3> S(mesh, 1);
  auto ops0 = factory(mesh, 0);
  Field b = mesh.makeField();
  fem::setByPosition<3>(mesh, b, 1, [](const VecN<3>& p, Real* v) {
    v[0] = p[0] - p[1] + 0.5 * p[2];
  });
  fem::zeroMasked(mesh, masks[0], b);
  la::LinOp<Field> Mg = gmg.preconditioner();
  Field x = mesh.makeField();
  auto res = la::gmres(
      S, ops0.op, b, x, {.rtol = 1e-8, .maxIterations = 300}, &Mg);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 40);
}

/// 2D variable-coefficient Dirichlet Poisson factory with a density jump
/// across a circular interface (the pressure-Poisson shape).
la::GmgOpFactory<2> rho2dFactory(const chns::Params& P,
                                 std::deque<Field>& masks) {
  auto phiAt = [](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.3, 0.03);
  };
  return [&P, &masks, phiAt](const Mesh<2>& mesh,
                             int level) -> la::GmgLevelOps<2> {
    if (static_cast<int>(masks.size()) <= level) masks.resize(level + 1);
    masks[level] = fem::boundaryMask(mesh);
    const Field& mask = masks[level];
    la::LinOp<Field> W = [&mesh, &P, phiAt](const Field& x, Field& y) {
      fem::matvec<2>(mesh, x, y, 1,
                     [&](const Octant<2>& oct, const Real* in, Real* out) {
                       const Real coef =
                           1.0 / P.rho(phiAt(oct.centerCoords()));
                       Real tmp[4] = {};
                       fem::applyStiffness<2>(oct.physSize(), in, tmp);
                       for (int i = 0; i < 4; ++i) out[i] += coef * tmp[i];
                     });
    };
    la::GmgLevelOps<2> ops;
    ops.op = fem::dirichletOp(mesh, mask, W);
    ops.diag = la::assembleDiagonalBlocks<2>(
        mesh, 1, [&](const Octant<2>& oct, Real* Ae) {
          const Real coef = 1.0 / P.rho(phiAt(oct.centerCoords()));
          const auto& refK = fem::refStiffness<2>();
          for (std::size_t k = 0; k < refK.size(); ++k)
            Ae[k] = refK[k] * coef;
        });
    for (int r = 0; r < mesh.nRanks(); ++r)
      for (std::size_t i = 0; i < mesh.rank(r).nNodes(); ++i)
        if (mask[r][i] != 0.0) ops.diag[r][i] = 1.0;
    return ops;
  };
}

TEST(Gmg, ChebyshevVsBlockJacobiIterationComparison) {
  // Same operator + hierarchy, only the smoother differs. On the hard
  // interface problem (100x density contrast, level-7 adaptive mesh) the
  // fixed-omega block-Jacobi damping (at ndof = 1, the damped point
  // diagonal) is mistuned for some levels while the Chebyshev interval
  // adapts to each level's estimated spectrum, so Chebyshev must not lose
  // on outer Krylov iterations. Everything here is deterministic
  // (simulated comm, serial reductions), so the comparison is exact and
  // reproducible.
  sim::SimComm comm(1, sim::Machine::loopback());
  OctList<2> t;
  buildTree<2>(
      Octant<2>::root(),
      [](const Octant<2>& o) {
        auto c = o.centerCoords();
        const Real d = std::abs(std::hypot(c[0] - 0.5, c[1] - 0.5) - 0.3);
        return d < 3.0 * o.physSize() ? Level(7) : Level(4);
      },
      t);
  t = balanceTree(t);
  auto dist = DistTree<2>::fromGlobal(comm, t);
  chns::Params P;
  P.rhoMinus = 0.01;  // 100x density contrast
  auto runSmoother = [&](la::GmgSmoother sm, Field& x) {
    std::deque<Field> masks;
    auto fac = rho2dFactory(P, masks);
    la::Gmg<2> gmg(comm, dist, fac,
                   {.levels = 4, .smoother = sm, .minLevel = 2});
    const Mesh<2>& mesh = gmg.meshAt(0);
    la::FieldSpace<2> S(mesh, 1);
    auto ops0 = fac(mesh, 0);
    Field b = mesh.makeField();
    fem::setByPosition<2>(mesh, b, 1, [](const VecN<2>& p, Real* v) {
      v[0] = p[0] - p[1];
    });
    fem::zeroMasked(mesh, masks[0], b);
    la::LinOp<Field> M = gmg.preconditioner();
    x = mesh.makeField();
    return la::gmres(S, ops0.op, b, x,
                     {.rtol = 1e-9, .maxIterations = 300}, &M);
  };
  Field xj, xc;
  auto resJ = runSmoother(la::GmgSmoother::kBlockJacobi, xj);
  auto resC = runSmoother(la::GmgSmoother::kChebyshev, xc);
  EXPECT_TRUE(resJ.converged);
  EXPECT_TRUE(resC.converged);
  EXPECT_LE(resC.iterations, resJ.iterations);
  EXPECT_LT(resC.iterations, 40);
  EXPECT_LT(resJ.iterations, 40);
}

/// ndof=1 mass+stiffness coefficient-block factory routed through the
/// batched panel-GEMM engine (fem::matvecCoefBlocks) — the level-operator
/// path the CHNS solver uses.
template <int DIM>
la::GmgOpFactory<DIM> unitCoefBlockFactory() {
  return [](const Mesh<DIM>& mesh, int) -> la::GmgLevelOps<DIM> {
    auto cM =
        std::make_shared<sim::PerRank<std::vector<Real>>>(mesh.nRanks());
    auto cK =
        std::make_shared<sim::PerRank<std::vector<Real>>>(mesh.nRanks());
    for (int r = 0; r < mesh.nRanks(); ++r) {
      const std::size_t ne = mesh.rank(r).nElems();
      (*cM)[r].assign(ne, 1.0);
      (*cK)[r].assign(ne, 1.0);
    }
    return la::makeCoefBlockLevelOps<DIM>(mesh, 1, std::move(cM),
                                          std::move(cK));
  };
}

struct ThreadGuard {
  explicit ThreadGuard(int n) {
    support::ThreadPool::instance().setThreads(n);
  }
  ~ThreadGuard() { support::ThreadPool::instance().setThreads(1); }
};

TEST(Gmg, VcycleBitwiseDeterministicAcrossThreads) {
  sim::SimComm comm(2, sim::Machine::loopback());
  OctList<2> tree;
  buildTree<2>(
      Octant<2>::root(),
      [](const Octant<2>& o) {
        auto c = o.centerCoords();
        return std::hypot(c[0] - 0.4, c[1] - 0.6) < 0.3 ? Level(6)
                                                        : Level(4);
      },
      tree);
  tree = balanceTree(tree);
  auto dist = DistTree<2>::fromGlobal(comm, tree);
  auto hier = la::GmgHierarchy<2>::build(comm, dist, nullptr, 3, 1);
  Field r = hier->meshAt(0).makeField();
  fem::setByPosition<2>(hier->meshAt(0), r, 1,
                        [](const VecN<2>& p, Real* v) {
                          v[0] = std::sin(7 * p[0]) + std::cos(5 * p[1]);
                        });
  auto apply = [&](int threads) {
    ThreadGuard tg(threads);
    la::Gmg<2> gmg(comm, hier, unitCoefBlockFactory<2>(), {.levels = 3});
    Field z;
    gmg.apply(r, z);
    return z;
  };
  const Field z1 = apply(1);
  const Field z4 = apply(4);
  for (int rk = 0; rk < comm.size(); ++rk)
    EXPECT_EQ(z1[rk], z4[rk]) << "V-cycle not bitwise thread-invariant";
}

TEST(Gmg, CoarseSolveFailureThrowsTypedError) {
  sim::SimComm comm(1, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(5));
  std::deque<Field> masks;
  obs::Registry reg;
  la::Gmg<2> gmg(comm, tree, poissonFactory<2>(masks),
                 {.levels = 3,
                  .coarseSolve = {.rtol = 1e-14, .maxIterations = 1}},
                 &reg);
  Field r = gmg.meshAt(0).makeField(), z;
  fem::setByPosition<2>(gmg.meshAt(0), r, 1, [](const VecN<2>& p, Real* v) {
    v[0] = p[0] * (1 - p[1]);
  });
  fem::zeroMasked(gmg.meshAt(0), masks[0], r);
  EXPECT_THROW(gmg.apply(r, z), la::GmgCoarseSolveError);
  EXPECT_GE(reg.counter("gmg.coarse_fail").value(), 1);
}

// ---- chns::SolveFamily: the degradation policy, with fake V-cycles ---------

/// One family on its own phase set and registry, with a counting identity
/// fallback and fake V-cycles that fill z with a fixed value or throw.
struct FamilyRig {
  obs::PhaseSet phases;
  obs::Registry metrics;
  chns::SolveFamily fam;
  int vcycleBuilds = 0, vcycleApplies = 0;
  int fallbackBuilds = 0, fallbackApplies = 0;

  explicit FamilyRig(bool gmg = true) : fam(gmg, phases, metrics, "xx-pc") {}

  long long fallbacks() { return metrics.counter("gmgPcFallbacks").value(); }
  long long retirements() {
    return metrics.counter("gmgRetirements").value();
  }

  std::function<la::LinOp<Field>()> vcycle(Real value, bool throws = false) {
    return [this, value, throws] {
      ++vcycleBuilds;
      return la::LinOp<Field>([this, value, throws](const Field& r,
                                                    Field& z) {
        ++vcycleApplies;
        if (throws) throw CheckError("fake coarse solve failure");
        z = r;
        for (auto& part : z) std::fill(part.begin(), part.end(), value);
      });
    };
  }

  la::LinOp<Field> pc(Real dt, const std::function<la::LinOp<Field>()>& build,
                      std::function<void(Field&)> post = nullptr) {
    return fam.preconditioner(
        dt, build,
        [this] {
          ++fallbackBuilds;
          return la::LinOp<Field>([this](const Field& r, Field& z) {
            ++fallbackApplies;
            z = r;
          });
        },
        std::move(post));
  }
};

const Field kResidual{{1.0, 2.0}, {3.0}};

TEST(SolveFamily, BuildFailureRetiresAndAppliesFallback) {
  FamilyRig rig;
  la::LinOp<Field> M =
      rig.pc(0.1, []() -> la::LinOp<Field> { throw CheckError("singular"); });
  EXPECT_FALSE(rig.fam.usesGmg());
  EXPECT_EQ(rig.retirements(), 1);
  EXPECT_EQ(rig.fallbacks(), 0);
  Field z;
  M(kResidual, z);
  EXPECT_EQ(z, kResidual);
  EXPECT_EQ(rig.fallbackApplies, 1);
  // A retired family does not try the V-cycle again.
  rig.pc(0.1, rig.vcycle(5.0));
  EXPECT_EQ(rig.vcycleBuilds, 0);
}

TEST(SolveFamily, FailedApplyFallsBackForTheRestOfThePreconditioner) {
  FamilyRig rig;
  la::LinOp<Field> M = rig.pc(0.1, rig.vcycle(5.0, /*throws=*/true));
  Field z;
  M(kResidual, z);
  EXPECT_EQ(z, kResidual);
  EXPECT_EQ(rig.fallbacks(), 1);
  M(kResidual, z);
  M(kResidual, z);
  EXPECT_EQ(rig.vcycleApplies, 1) << "later applies retried the V-cycle";
  EXPECT_EQ(rig.fallbackApplies, 3);
  EXPECT_EQ(rig.fallbacks(), 1);
  EXPECT_EQ(rig.retirements(), 0);
  EXPECT_TRUE(rig.fam.usesGmg());
  // A new preconditioner tries its fresh V-cycle again.
  la::LinOp<Field> M2 = rig.pc(0.1, rig.vcycle(5.0));
  M2(kResidual, z);
  EXPECT_EQ(rig.vcycleApplies, 2);
  EXPECT_EQ(z, (Field{{5.0, 5.0}, {5.0}}));
}

TEST(SolveFamily, NonFiniteApplyFallsBack) {
  FamilyRig rig;
  la::LinOp<Field> M = rig.pc(0.1, rig.vcycle(std::nan("")));
  Field z;
  M(kResidual, z);
  EXPECT_EQ(z, kResidual);
  M(kResidual, z);
  EXPECT_EQ(rig.vcycleApplies, 1);
  EXPECT_EQ(rig.fallbacks(), 1);
  EXPECT_EQ(rig.retirements(), 0);
}

TEST(SolveFamily, FallbackCachedPerDt) {
  for (const bool gmg : {true, false}) {
    FamilyRig rig(gmg);
    rig.pc(0.1, rig.vcycle(5.0));
    rig.pc(0.1, rig.vcycle(5.0));
    EXPECT_EQ(rig.fallbackBuilds, 1);
    rig.pc(0.05, rig.vcycle(5.0));
    EXPECT_EQ(rig.fallbackBuilds, 2);
    EXPECT_EQ(rig.vcycleBuilds, gmg ? 3 : 0);
  }
}

TEST(SolveFamily, PostRunsOnEveryPath) {
  int posts = 0;
  auto post = [&](Field& z) {
    ++posts;
    z[1][0] = -1.0;
  };
  FamilyRig rig;
  Field z;
  rig.pc(0.1, rig.vcycle(5.0), post)(kResidual, z);  // V-cycle
  EXPECT_EQ(z, (Field{{5.0, 5.0}, {-1.0}}));
  rig.pc(0.1, rig.vcycle(5.0, true), post)(kResidual, z);  // fallback
  EXPECT_EQ(z, (Field{{1.0, 2.0}, {-1.0}}));
  FamilyRig off(false);
  off.pc(0.1, nullptr, post)(kResidual, z);  // GMG off
  EXPECT_EQ(z, (Field{{1.0, 2.0}, {-1.0}}));
  EXPECT_EQ(posts, 3);
}

TEST(SolveFamily, AcceptRejectsInsaneIterates) {
  FamilyRig rig;
  EXPECT_FALSE(rig.fam.accept(Field{{1.0, 1e9}}));
  EXPECT_EQ(rig.fallbacks(), 1);
  EXPECT_FALSE(rig.fam.accept(Field{{std::nan("")}, {0.0}}));
  EXPECT_EQ(rig.fallbacks(), 2);
  EXPECT_TRUE(rig.fam.accept(Field{{1e2, -1e2}}));
  EXPECT_EQ(rig.fallbacks(), 2);
  EXPECT_EQ(rig.retirements(), 0);
  FamilyRig off(false);
  EXPECT_TRUE(off.fam.accept(Field{{1e9, std::nan("")}}));
  EXPECT_EQ(off.fallbacks(), 0);
}

TEST(SolveFamily, RetireIsIdempotentAndResetUnretires) {
  FamilyRig rig;
  rig.fam.retireIf(false);
  EXPECT_TRUE(rig.fam.usesGmg());
  rig.fam.retireIf(true);
  rig.fam.retire();
  EXPECT_FALSE(rig.fam.usesGmg());
  EXPECT_EQ(rig.retirements(), 1);
  rig.fam.workspace().work.resize(2);
  rig.fam.reset();
  EXPECT_TRUE(rig.fam.usesGmg());
  EXPECT_TRUE(rig.fam.workspace().work.empty());
  rig.pc(0.1, rig.vcycle(5.0));
  EXPECT_EQ(rig.vcycleBuilds, 1);
  EXPECT_EQ(rig.fallbackBuilds, 1);
  rig.fam.reset();
  rig.pc(0.1, rig.vcycle(5.0));
  EXPECT_EQ(rig.fallbackBuilds, 2) << "reset kept the (mesh, dt) fallback";
  // With GMG off there is nothing to retire.
  FamilyRig off(false);
  off.fam.retire();
  EXPECT_EQ(off.retirements(), 0);
}

TEST(SolveFamily, AppliesTimedUnderTheFamilyPhase) {
  FamilyRig rig;
  Field z;
  la::LinOp<Field> M = rig.pc(0.1, rig.vcycle(5.0, true));
  M(kResidual, z);
  M(kResidual, z);
  rig.pc(0.1, rig.vcycle(5.0))(kResidual, z);
  EXPECT_EQ(rig.phases["xx-pc"].calls(), 3);
  EXPECT_EQ(rig.phases.all().size(), 1u);
}

// ---- CHNS hierarchy caching -------------------------------------------------

TEST(GmgChns, HierarchyPreservedAcrossNoopRemeshes) {
  sim::SimComm comm(2, sim::Machine::loopback());
  chns::ChnsOptions<2> opt;
  opt.params.Cn = 0.03;
  opt.dt = 1e-3;
  opt.blocksPerStep = 1;
  // Every element already sits at the target level -> remeshNow is a no-op.
  opt.coarseLevel = opt.interfaceLevel = opt.featureLevel = 4;
  opt.referenceLevel = 4;
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });
  auto builds = [&] {
    return s.telemetry().metrics.counter("gmgHierarchyBuilds").value();
  };
  EXPECT_EQ(builds(), 0);  // lazy: nothing until the first solve
  s.step();
  EXPECT_EQ(builds(), 1);  // one hierarchy shared by CH/NS/PP
  s.remeshNow();
  s.remeshNow();
  EXPECT_EQ(s.noopRemeshes(), 2);
  s.step();
  EXPECT_EQ(builds(), 1) << "no-op remesh dropped the GMG hierarchy";
}

/// The adaptive 2D drop: 2 ranks, level 4 start, remesh after every step.
chns::ChnsOptions<2> adaptiveDropOptions() {
  chns::ChnsOptions<2> opt;
  opt.params.Cn = 0.03;
  opt.dt = 1e-3;
  opt.blocksPerStep = 1;
  opt.remeshEvery = 1;
  opt.coarseLevel = 3;
  opt.interfaceLevel = 5;
  opt.featureLevel = 5;
  opt.referenceLevel = 5;
  return opt;
}

chns::ChnsSolver<2> adaptiveDrop(sim::SimComm& comm,
                                 chns::ChnsOptions<2> opt) {
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
  chns::ChnsSolver<2> s(comm, std::move(tree), std::move(opt));
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25,
                            s.options().params.Cn);
  });
  return s;
}

TEST(GmgChns, HierarchyRebuiltOnRealRemesh) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto s = adaptiveDrop(comm, adaptiveDropOptions());
  const long r0 = s.meshRebuilds();
  s.step();
  s.step();
  ASSERT_GT(s.meshRebuilds(), r0);  // the drop forces a real remesh
  const auto builds =
      s.telemetry().metrics.counter("gmgHierarchyBuilds").value();
  // One build per mesh epoch that ran solves: the real remeshes dropped
  // the cached hierarchy, and it came back exactly once per new mesh.
  EXPECT_GT(builds, 1) << "real remesh did not invalidate the hierarchy";
  EXPECT_LE(builds, s.meshRebuilds() - r0 + 1)
      << "hierarchy rebuilt more than once per mesh";
}


// ---- CHNS degradation wiring, forced through existing options --------------

/// Left-to-right sum of a field's entries.
Real fieldSum(const Field& f) {
  Real s = 0;
  for (const auto& part : f)
    for (const Real v : part) s += v;
  return s;
}

Real fieldSquaredNorm(const Field& f) {
  Real s = 0;
  for (const auto& part : f)
    for (const Real v : part) s += v * v;
  return s;
}

TEST(GmgChns, FailingCoarseSolvesFallBackOncePerLinearSolve) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto opt = adaptiveDropOptions();
  for (la::GmgOptions* g : {&opt.gmgCh, &opt.gmgNs, &opt.gmgPp})
    g->coarseSolve = {.rtol = 1e-30, .maxIterations = 1};
  auto s = adaptiveDrop(comm, opt);
  // The same drop with working V-cycles: the pooled fallback must reach
  // the same fixed point to solver tolerance. The velocity is compared by
  // its squared norm because the symmetric drop sums it to ~1e-16; the
  // pressure stays out, as in fig5.
  sim::SimComm refComm(2, sim::Machine::loopback());
  auto ref = adaptiveDrop(refComm, adaptiveDropOptions());
  const int steps = 3;
  for (int i = 0; i < steps; ++i) {
    s.step();
    ref.step();
    EXPECT_TRUE(s.lastChNewton_.converged) << "step " << i;
    EXPECT_TRUE(s.lastNs_.converged) << "step " << i;
    EXPECT_TRUE(s.lastPp_.converged) << "step " << i;
    const Real phi = fieldSum(s.phi()), phiRef = fieldSum(ref.phi());
    EXPECT_NEAR(phi, phiRef, 1e-6 * std::max<Real>(std::abs(phiRef), 1.0))
        << "step " << i;
    const Real vel = fieldSquaredNorm(s.velocity());
    const Real velRef = fieldSquaredNorm(ref.velocity());
    EXPECT_NEAR(vel, velRef, 1e-6 * velRef) << "step " << i;
  }
  auto count = [&](const char* name) {
    return s.telemetry().metrics.counter(name).value();
  };
  // Every linear solve (one per Newton iteration, plus NS and PP) tries
  // one V-cycle, whose coarse solve fails, and then stays on its fallback.
  EXPECT_GT(count("gmg.coarse_fail"), 0);
  EXPECT_EQ(count("gmg.vcycles"), count("gmg.coarse_fail"));
  EXPECT_EQ(count("gmgPcFallbacks"), count("gmg.vcycles"));
  EXPECT_EQ(count("gmgPcFallbacks"),
            count("ch-newton-iters") + 2 * steps * opt.blocksPerStep);
  EXPECT_EQ(count("gmgRetirements"), 0);
  for (const Field* f : {&s.phi(), &s.mu(), &s.velocity(), &s.pressure()})
    for (const auto& part : *f)
      for (const Real v : part) ASSERT_TRUE(std::isfinite(v));
}

TEST(GmgChns, CappedNsAndPpRetireOncePerMeshEpoch) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto opt = adaptiveDropOptions();
  opt.nsKsp.maxIterations = 2;
  opt.ppKsp.maxIterations = 2;
  auto s = adaptiveDrop(comm, opt);
  std::set<long> epochs;  // mesh epochs that ran a solve
  for (int i = 0; i < 3; ++i) {
    epochs.insert(s.meshRebuilds());
    s.step();
    EXPECT_FALSE(s.lastNs_.converged) << "step " << i;
    EXPECT_FALSE(s.lastPp_.converged) << "step " << i;
  }
  ASSERT_GT(epochs.size(), 1u) << "no real remesh between solves";
  // Each family retires on its first capped solve of an epoch; a real
  // remesh un-retires it.
  EXPECT_EQ(s.telemetry().metrics.counter("gmgRetirements").value(),
            2 * static_cast<long>(epochs.size()));
}

}  // namespace
}  // namespace pt
