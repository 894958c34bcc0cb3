// Higher-order (p >= 2) scenario axis: sum-factorized tensor kernels vs
// dense quadrature assembly, the p = 1 tensor operator vs the closed-form
// reference operators, PSpace MATVEC contracts (factored vs dense panels,
// SIMD tiers, symmetry, partition independence), the p -> 1 transfer-pair
// transpose identity, and an end-to-end p = 2 screened-Poisson solve with
// the p-MG + h-GMG preconditioner converging at order p + 1.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "fem/elem_ops.hpp"
#include "fem/matvec_batched.hpp"
#include "fem/pspace.hpp"
#include "fem/tensor_kernels.hpp"
#include "la/gmg.hpp"
#include "la/ksp.hpp"
#include "la/pc.hpp"
#include "mesh/mesh.hpp"
#include "octree/balance.hpp"

namespace pt {
namespace {

// ---- Elemental kernels ------------------------------------------------------

/// Sum-factorized apply == dense-assembled apply to roundoff, every
/// tabulated order and both dimensions.
template <int DIM, int P>
void factoredMatchesDense() {
  constexpr int n = fem::kTensorNodes<DIM, P>;
  std::vector<Real> A(std::size_t(n) * n);
  const Real h = 0.125, mc = 1.3, sc = 0.7;
  fem::tensorAssembleDense<DIM, P>(h, mc, sc, A.data());
  std::mt19937 gen(3 * DIM + P);
  std::uniform_real_distribution<Real> dist(-1.0, 1.0);
  Real u[n], yF[n], yD[n];
  for (int i = 0; i < n; ++i) u[i] = dist(gen);
  fem::tensorApplyHelmholtz<DIM, P>(h, mc, sc, u, yF);
  Real scale = 1;
  for (int i = 0; i < n; ++i) {
    Real acc = 0;
    for (int j = 0; j < n; ++j) acc += A[std::size_t(i) * n + j] * u[j];
    yD[i] = acc;
    scale = std::max(scale, std::abs(acc));
  }
  for (int i = 0; i < n; ++i)
    EXPECT_LE(std::abs(yF[i] - yD[i]) / scale, 1e-13)
        << "DIM=" << DIM << " P=" << P << " i=" << i;
}

TEST(TensorKernels, FactoredMatchesDense2D) {
  factoredMatchesDense<2, 1>();
  factoredMatchesDense<2, 2>();
  factoredMatchesDense<2, 3>();
}

TEST(TensorKernels, FactoredMatchesDense3D) {
  factoredMatchesDense<3, 1>();
  factoredMatchesDense<3, 2>();
  factoredMatchesDense<3, 3>();
}

/// At p = 1 the tensor-node order (lexicographic, x fastest) coincides with
/// the mesh corner order, and Q = 2 Gauss integrates the bilinear entries
/// exactly — so tensorAssembleDense must reproduce the closed-form
/// reference operators at their documented scalings.
template <int DIM>
void p1MatchesRefOps() {
  constexpr int kC = kNumChildren<DIM>;
  const Real h = 0.25, mc = 1.7, sc = 0.4;
  Real jac = 1;
  for (int d = 0; d < DIM; ++d) jac *= h;
  const Real kscale = (DIM == 2) ? 1.0 : h;  // h^(DIM-2)
  std::vector<Real> A(std::size_t(kC) * kC);
  fem::tensorAssembleDense<DIM, 1>(h, mc, sc, A.data());
  const auto& refM = fem::refMass<DIM>();
  const auto& refK = fem::refStiffness<DIM>();
  for (int i = 0; i < kC; ++i)
    for (int j = 0; j < kC; ++j) {
      const Real want = mc * jac * refM[i * kC + j] + sc * kscale * refK[i * kC + j];
      EXPECT_NEAR(A[std::size_t(i) * kC + j], want,
                  1e-14 * std::max(Real(1), std::abs(want)))
          << "DIM=" << DIM << " (" << i << "," << j << ")";
    }
}

TEST(TensorKernels, P1MatchesReferenceOperators2D) { p1MatchesRefOps<2>(); }
TEST(TensorKernels, P1MatchesReferenceOperators3D) { p1MatchesRefOps<3>(); }

// ---- PSpace MATVEC ----------------------------------------------------------

Real maxAbs(const Field& f) {
  Real m = 0;
  for (const auto& v : f)
    for (Real x : v) m = std::max(m, std::abs(x));
  return m;
}

Real maxDiff(const Field& a, const Field& b) {
  Real m = 0;
  for (std::size_t r = 0; r < a.size(); ++r)
    for (std::size_t i = 0; i < a[r].size(); ++i)
      m = std::max(m, std::abs(a[r][i] - b[r][i]));
  return m;
}

/// Consistent pseudo-random field: a pure function of the global node key.
template <int DIM, int P>
Field hashField(const fem::PSpace<DIM, P>& ps, Real shift) {
  Field f = ps.makeField();
  for (int r = 0; r < ps.nRanks(); ++r)
    for (std::size_t i = 0; i < ps.rank(r).nNodes(); ++i) {
      const auto x = ps.nodeCoords(r, static_cast<std::uint32_t>(i));
      Real s = shift;
      for (int d = 0; d < DIM; ++d) s += (127.1 + 184.6 * d) * x[d];
      const Real h = std::sin(s) * 43758.5453;
      f[r][i] = h - std::floor(h) - 0.5;
    }
  return f;
}

template <int DIM, int P>
void pspaceMatvecContracts(int nRanks, Level level) {
  sim::SimComm comm(nRanks, sim::Machine::loopback());
  auto dt = DistTree<DIM>::fromGlobal(comm, uniformTree<DIM>(level));
  auto mesh = Mesh<DIM>::build(comm, dt);
  fem::PSpace<DIM, P> ps(mesh);
  fem::PSpaceLa<DIM, P> S(ps);
  const Real mc = 1.0, sc = 1.0;

  Field u = hashField(ps, 0.0), v = hashField(ps, 2.5);
  Field yD, yF;
  ps.matvec(u, yD, mc, sc, fem::SimdIsa::kScalar);
  ps.matvecFactored(u, yF, mc, sc);
  const Real scale = std::max(Real(1), maxAbs(yD));
  EXPECT_LE(maxDiff(yD, yF) / scale, 1e-13);

  // Every compiled SIMD tier agrees with scalar to roundoff.
  const int detected = support::simdTier();
  for (int t = 1; t <= detected; ++t) {
    Field yT;
    ps.matvec(u, yT, mc, sc, static_cast<fem::SimdIsa>(t));
    EXPECT_LE(maxDiff(yD, yT) / scale, 1e-13) << "tier " << t;
  }

  // Symmetry in the owned-unique inner product.
  Field Av, Au;
  ps.matvec(v, Av, mc, sc);
  ps.matvec(u, Au, mc, sc);
  const Real uAv = S.dot(u, Av), vAu = S.dot(v, Au);
  EXPECT_LE(std::abs(uAv - vAu) / std::max(Real(1), std::abs(uAv)), 1e-12);
}

TEST(PSpace, MatvecContracts2D) { pspaceMatvecContracts<2, 2>(3, 3); }
TEST(PSpace, MatvecContracts3D) { pspaceMatvecContracts<3, 2>(2, 2); }
TEST(PSpace, MatvecContractsP3) { pspaceMatvecContracts<2, 3>(2, 3); }

/// Partition independence: the same global problem split across 1 vs 3
/// ranks yields the same nodal values (matched by exact integer node key)
/// to roundoff.
TEST(PSpace, PartitionIndependence) {
  constexpr int DIM = 2, P = 2;
  sim::SimComm c1(1, sim::Machine::loopback());
  sim::SimComm c3(3, sim::Machine::loopback());
  auto dt1 = DistTree<DIM>::fromGlobal(c1, uniformTree<DIM>(3));
  auto dt3 = DistTree<DIM>::fromGlobal(c3, uniformTree<DIM>(3));
  auto m1 = Mesh<DIM>::build(c1, dt1);
  auto m3 = Mesh<DIM>::build(c3, dt3);
  fem::PSpace<DIM, P> ps1(m1), ps3(m3);

  Field u1 = hashField(ps1, 0.0), u3 = hashField(ps3, 0.0);
  Field y1, y3;
  ps1.matvec(u1, y1, 1.0, 1.0);
  ps3.matvec(u3, y3, 1.0, 1.0);
  const Real scale = std::max(Real(1), maxAbs(y1));
  const auto& keys1 = ps1.rank(0).keys;
  for (int r = 0; r < ps3.nRanks(); ++r) {
    const auto& rs = ps3.rank(r);
    for (std::size_t i = 0; i < rs.nNodes(); ++i) {
      const auto it =
          std::lower_bound(keys1.begin(), keys1.end(), rs.keys[i]);
      ASSERT_TRUE(it != keys1.end() && *it == rs.keys[i]);
      const std::size_t j = it - keys1.begin();
      EXPECT_LE(std::abs(y3[r][i] - y1[0][j]) / scale, 1e-12);
    }
  }
}

/// R = P^T: <R f, c>_mesh == <f, P c>_pspace for consistent fields.
TEST(PSpace, TransferPairIsTranspose) {
  constexpr int DIM = 2, P = 2;
  sim::SimComm comm(3, sim::Machine::loopback());
  auto dt = DistTree<DIM>::fromGlobal(comm, uniformTree<DIM>(3));
  auto mesh = Mesh<DIM>::build(comm, dt);
  fem::PSpace<DIM, P> ps(mesh);
  fem::PSpaceLa<DIM, P> S(ps);

  Field f = hashField(ps, 1.0);
  // Consistent coarse field from the global p = 1 node position.
  Field c = mesh.makeField(1);
  fem::setByPosition<DIM>(mesh, c, 1, [](const VecN<DIM>& pos, Real* out) {
    Real s = 0.3;
    for (int d = 0; d < DIM; ++d) s += (91.7 + 41.3 * d) * pos[d];
    const Real h = std::sin(s) * 43758.5453;
    out[0] = h - std::floor(h) - 0.5;
  });
  Field Pc, Rf;
  ps.prolongate(c, Pc);
  ps.restrictTr(f, Rf);
  const Real a = S.dot(f, Pc);
  const Real b = mesh.dot(Rf, c, 1);
  EXPECT_LE(std::abs(a - b) / std::max(Real(1), std::abs(a)), 1e-12);
}

// ---- End-to-end p = 2 solve -------------------------------------------------

constexpr int kDim2 = 2;

Real uExact2(const VecN<kDim2>& x) {
  Real v = 1;
  for (int d = 0; d < kDim2; ++d) v *= std::cos(2 * M_PI * x[d]);
  return v;
}

/// Screened Poisson (1 - Laplace) u = f with u* = prod cos(2 pi x_d):
/// GMRES + two-level p-MG over the full h-GMG stack, L2 order p + 1 = 3.
/// (The outer Krylov is GMRES, not CG: the h-GMG V-cycle restricts by
/// injection and runs an inner coarse Krylov, so the composed
/// preconditioner is mildly nonsymmetric — see fem::makePMultigridPc.)
TEST(PSpace, P2ScreenedPoissonOrder3WithGmg) {
  constexpr int DIM = kDim2, P = 2;
  using PS = fem::PSpace<DIM, P>;
  constexpr int kP1 = P + 1;
  constexpr int n = PS::kNpe;
  sim::SimComm comm(2, sim::Machine::loopback());
  const auto& b1 = fem::basis1d<P>();

  Real prevErr = 0;
  int prevIts = 0;
  for (Level level = 3; level <= 4; ++level) {
    auto tree = DistTree<DIM>::fromGlobal(comm, uniformTree<DIM>(level));
    la::GmgOpFactory<DIM> factory =
        [](const Mesh<DIM>& m, int) -> la::GmgLevelOps<DIM> {
      la::GmgLevelOps<DIM> ops;
      ops.op = [&m](const Field& x, Field& y) {
        fem::matvecUniform<DIM>(m, x, y, 1, 1.0, 1.0);
      };
      ops.diag = la::assembleDiagonalBlocks<DIM>(
          m, 1, [](const Octant<DIM>& oct, Real* Ae) {
            fem::assembleGemmOperator<DIM>(oct.physSize(), 1.0, 1.0, Ae);
          });
      return ops;
    };
    la::Gmg<DIM> gmg(comm, tree, factory, {.levels = 2});
    const Mesh<DIM>& mesh = gmg.meshAt(0);
    PS ps(mesh);
    fem::PSpaceLa<DIM, P> S(ps);
    la::LinOp<Field> A = [&ps](const Field& x, Field& y) {
      ps.matvec(x, y, 1.0, 1.0);
    };
    la::LinOp<Field> M =
        fem::makePMultigridPc<DIM, P>(ps, 1.0, 1.0, gmg.preconditioner());

    // RHS b_a = int f N_a and (after the solve) the L2 error, both by
    // per-element Gauss quadrature on the degree-P basis.
    Field b = ps.makeField();
    const Real fCoef = 1.0 + DIM * 4.0 * M_PI * M_PI;
    auto quadrature = [&](const Field* u, Field* rhs) -> Real {
      Real err2 = 0;
      for (int r = 0; r < ps.nRanks(); ++r) {
        const auto& rs = ps.rank(r);
        const RankMesh<DIM>& rm = mesh.rank(r);
        for (std::size_t slot = 0; slot < rm.nElems(); ++slot) {
          const auto& oct = rm.elems[rs.order[slot]];
          const Real h = oct.physSize();
          const Real jac = h * h;
          const VecN<DIM> a0 = oct.anchorCoords();
          const std::uint32_t* nodes = &rs.batchNodes[slot * n];
          for (int q = 0; q < n; ++q) {
            int t = q, qi[DIM];
            Real wq = 1;
            VecN<DIM> xq;
            for (int d = 0; d < DIM; ++d) {
              qi[d] = t % kP1;
              t /= kP1;
              wq *= b1.qw[qi[d]];
              xq[d] = a0[d] + h * b1.qx[qi[d]];
            }
            Real Nq[n];
            for (int a = 0; a < n; ++a) {
              int ta = a;
              Real Na = 1;
              for (int d = 0; d < DIM; ++d) {
                Na *= b1.N[qi[d] * kP1 + ta % kP1];
                ta /= kP1;
              }
              Nq[a] = Na;
            }
            if (rhs) {
              const Real fw = wq * jac * fCoef * uExact2(xq);
              for (int a = 0; a < n; ++a)
                (*rhs)[r][nodes[a]] += fw * Nq[a];
            }
            if (u) {
              Real uh = 0;
              for (int a = 0; a < n; ++a) uh += Nq[a] * (*u)[r][nodes[a]];
              const Real e = uh - uExact2(xq);
              err2 += wq * jac * e * e;
            }
          }
        }
      }
      return std::sqrt(err2);
    };
    quadrature(nullptr, &b);
    ps.accumulate(b);

    Field u = ps.makeField();
    auto res = la::gmres(
        S, A, b, u, {.rtol = 1e-10, .maxIterations = 100, .gmresRestart = 50},
        &M);
    ASSERT_TRUE(res.converged) << "level " << int(level) << " rel "
                               << res.relResidual;
    const Real err = quadrature(&u, nullptr);
    if (prevIts) {
      EXPECT_LE(res.iterations, prevIts + 5);
    }
    if (prevErr > 0) {
      EXPECT_GT(prevErr / err, 5.6)
          << "L2 ratio below order-3 expectation at level " << int(level);
    }
    prevErr = err;
    prevIts = res.iterations;
  }
}

}  // namespace
}  // namespace pt
