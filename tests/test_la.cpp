#include <gtest/gtest.h>

#include <cmath>

#include "fem/bc.hpp"
#include "fem/elem_ops.hpp"
#include "fem/matvec.hpp"
#include "la/ksp.hpp"
#include "la/newton.hpp"
#include "la/pc.hpp"
#include "la/seqmat.hpp"
#include "la/space.hpp"
#include "mesh/mesh.hpp"
#include "octree/balance.hpp"
#include "support/rng.hpp"

namespace pt {
namespace {

template <int DIM>
OctList<DIM> interfaceTree(Level coarse, Level fine) {
  OctList<DIM> tree;
  buildTree<DIM>(
      Octant<DIM>::root(),
      [=](const Octant<DIM>& o) {
        auto c = o.centerCoords();
        Real r2 = 0;
        for (int d = 0; d < DIM; ++d) r2 += (c[d] - 0.5) * (c[d] - 0.5);
        return std::abs(std::sqrt(r2) - 0.3) < 2.0 * o.physSize() ? fine
                                                                  : coarse;
      },
      tree);
  return balanceTree(tree);
}

template <int DIM>
Mesh<DIM> makeMesh(sim::SimComm& comm, Level coarse, Level fine) {
  auto dt = DistTree<DIM>::fromGlobal(comm, interfaceTree<DIM>(coarse, fine));
  return Mesh<DIM>::build(comm, dt);
}

// ---- Sequential CSR / BSR ---------------------------------------------------

TEST(CsrMatrix, AssemblyAndMultiply) {
  la::CsrMatrix A(3, 3);
  A.setValue(0, 0, 2.0);
  A.setValue(0, 1, -1.0);
  A.setValue(1, 1, 2.0);
  A.setValue(1, 0, -1.0);
  A.setValue(1, 2, -1.0);
  A.setValue(2, 2, 2.0);
  A.setValue(2, 1, -1.0);
  A.setValue(0, 0, 1.0);  // ADD accumulates: diag(0) becomes 3
  A.assemblyEnd();
  EXPECT_EQ(A.nnz(), 7u);
  EXPECT_DOUBLE_EQ(A.diagonal(0), 3.0);
  std::vector<Real> x{1, 2, 3}, y;
  A.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 3 * 1 - 2.0);
  EXPECT_DOUBLE_EQ(y[1], -1 + 4 - 3);
  EXPECT_DOUBLE_EQ(y[2], -2 + 6);
}

TEST(CsrMatrix, InsertModeOverwrites) {
  la::CsrMatrix A(2, 2);
  A.setValue(0, 0, 5.0);
  A.setValue(0, 0, 2.0, la::InsertMode::kInsert);
  A.assemblyEnd();
  EXPECT_DOUBLE_EQ(A.diagonal(0), 2.0);
}

TEST(CsrMatrix, SetAfterAssemblyThrows) {
  la::CsrMatrix A(2, 2);
  A.setValue(0, 0, 1.0);
  A.assemblyEnd();
  EXPECT_THROW(A.setValue(1, 1, 1.0), CheckError);
}

TEST(CsrMatrix, PatternReuse) {
  la::CsrMatrix A(2, 2);
  A.setValue(0, 0, 1.0);
  A.setValue(1, 1, 1.0);
  A.assemblyEnd();
  A.zeroRetainPattern();
  A.addValueAssembled(0, 0, 7.0);
  EXPECT_DOUBLE_EQ(A.diagonal(0), 7.0);
  EXPECT_DOUBLE_EQ(A.diagonal(1), 0.0);
  EXPECT_THROW(A.addValueAssembled(0, 1, 1.0), CheckError);
}

TEST(BsrMatrix, MatchesCsrOnRandomSystem) {
  Rng rng(7);
  const int nb = 12, bs = 3;
  la::CsrMatrix A(nb * bs, nb * bs);
  la::BsrMatrix B(nb, nb, bs);
  for (int trial = 0; trial < 200; ++trial) {
    const GlobalIdx i = rng.uniformInt(0, nb * bs - 1);
    const GlobalIdx j = rng.uniformInt(0, nb * bs - 1);
    const Real v = rng.uniform(-1, 1);
    A.setValue(i, j, v);
    B.setValue(i, j, v);
  }
  A.assemblyEnd();
  B.assemblyEnd();
  std::vector<Real> x(nb * bs), ya, yb;
  for (auto& v : x) v = rng.uniform(-1, 1);
  A.multiply(x, ya);
  B.multiply(x, yb);
  for (int i = 0; i < nb * bs; ++i) EXPECT_NEAR(ya[i], yb[i], 1e-13);
}

TEST(BsrMatrix, AddBlockAndDiagonalBlock) {
  la::BsrMatrix B(2, 2, 2);
  const Real blk[4] = {1, 2, 3, 4};
  B.addBlock(1, 1, blk);
  B.addBlock(1, 1, blk);
  B.assemblyEnd();
  Real d[4];
  B.diagonalBlock(1, d);
  EXPECT_DOUBLE_EQ(d[0], 2);
  EXPECT_DOUBLE_EQ(d[3], 8);
  B.diagonalBlock(0, d);
  EXPECT_DOUBLE_EQ(d[0], 0);
}

// Assembled-operator oracle for the matrix-free engine: P^T A_e P
// assembled into a BAIJ matrix through the mesh's hanging-node supports
// (cornerOffset/supports) must reproduce fem::matvec on a mesh with
// hanging nodes, for every block size.
class BsrAssemblyP : public ::testing::TestWithParam<int> {};

TEST_P(BsrAssemblyP, AssembledSpmvMatchesMatrixFree) {
  constexpr int kC = kNumChildren<2>;
  const int bs = GetParam();
  sim::SimComm comm(1, sim::Machine::loopback());
  Mesh<2> mesh = makeMesh<2>(comm, 2, 5);
  const RankMesh<2>& rm = mesh.rank(0);
  const auto nNodes = static_cast<GlobalIdx>(rm.nNodes());
  la::BsrMatrix A(nNodes, nNodes, bs);
  const int n = kC * bs;
  std::vector<Real> Ae(n * n), blk(bs * bs);
  const auto& refM = fem::refMass<2>();
  const auto& refK = fem::refStiffness<2>();
  for (std::size_t e = 0; e < rm.nElems(); ++e) {
    // Elemental mass + 0.7 * stiffness, the same on every component.
    std::fill(Ae.begin(), Ae.end(), 0.0);
    const Real h = rm.elems[e].physSize();
    for (int i = 0; i < kC; ++i)
      for (int j = 0; j < kC; ++j)
        for (int d = 0; d < bs; ++d)
          Ae[(i * bs + d) * n + (j * bs + d)] =
              refM[i * kC + j] * h * h + 0.7 * refK[i * kC + j];
    for (int c1 = 0; c1 < kC; ++c1)
      for (int c2 = 0; c2 < kC; ++c2)
        for (auto s1 = rm.cornerOffset[e * kC + c1];
             s1 < rm.cornerOffset[e * kC + c1 + 1]; ++s1)
          for (auto s2 = rm.cornerOffset[e * kC + c2];
               s2 < rm.cornerOffset[e * kC + c2 + 1]; ++s2) {
            const Real w = rm.supports[s1].weight * rm.supports[s2].weight;
            for (int d1 = 0; d1 < bs; ++d1)
              for (int d2 = 0; d2 < bs; ++d2)
                blk[d1 * bs + d2] =
                    w * Ae[(c1 * bs + d1) * n + (c2 * bs + d2)];
            A.addBlock(rm.supports[s1].node, rm.supports[s2].node,
                       blk.data());
          }
  }
  A.assemblyEnd();
  Field x = mesh.makeField(bs), yFree = mesh.makeField(bs);
  fem::setByPosition<2>(mesh, x, bs, [bs](const VecN<2>& pos, Real* v) {
    for (int d = 0; d < bs; ++d)
      v[d] = std::sin(3 * pos[0] + d) * (1 + pos[1]);
  });
  std::vector<Real> yMat;
  A.multiply(x[0], yMat);
  fem::matvec<2>(mesh, x, yFree, bs,
                 [bs](const Octant<2>& oct, const Real* in, Real* out) {
                   Real comp[kC], res[kC], res2[kC];
                   for (int d = 0; d < bs; ++d) {
                     for (int c = 0; c < kC; ++c) comp[c] = in[c * bs + d];
                     std::fill(res, res + kC, 0.0);
                     std::fill(res2, res2 + kC, 0.0);
                     fem::applyMass<2>(oct.physSize(), comp, res);
                     fem::applyStiffness<2>(oct.physSize(), comp, res2);
                     for (int c = 0; c < kC; ++c)
                       out[c * bs + d] += res[c] + 0.7 * res2[c];
                   }
                 });
  ASSERT_EQ(yMat.size(), yFree[0].size());
  for (std::size_t i = 0; i < yMat.size(); ++i)
    ASSERT_NEAR(yMat[i], yFree[0][i], 1e-12) << "slot " << i;
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, BsrAssemblyP, ::testing::Values(1, 2, 3));

TEST(DenseSolve, SolvesRandomSystems) {
  Rng rng(3);
  for (int n = 1; n <= 5; ++n) {
    std::vector<Real> A(n * n);
    std::vector<Real> xTrue(n), b(n, 0.0);
    for (auto& v : A) v = rng.uniform(-1, 1);
    for (int i = 0; i < n; ++i) A[i * n + i] += n;  // diag dominance
    for (auto& v : xTrue) v = rng.uniform(-1, 1);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) b[i] += A[i * n + j] * xTrue[j];
    la::denseSolve(n, A, b.data());
    for (int i = 0; i < n; ++i) EXPECT_NEAR(b[i], xTrue[i], 1e-10);
  }
}

// ---- Krylov solvers on the mesh --------------------------------------------

struct SolverCase {
  int ranks;
};
class KspP : public ::testing::TestWithParam<SolverCase> {};

TEST_P(KspP, CgSolvesMassSystem) {
  sim::SimComm comm(GetParam().ranks, sim::Machine::loopback());
  auto mesh = makeMesh<2>(comm, 2, 5);
  la::FieldSpace<2> S(mesh, 1);
  la::LinOp<Field> A = [&](const Field& x, Field& y) {
    fem::massMatvec(mesh, x, y);
  };
  Field xTrue = mesh.makeField();
  fem::setByPosition<2>(mesh, xTrue, 1, [](const VecN<2>& p, Real* v) {
    v[0] = std::sin(5 * p[0]) + p[1];
  });
  Field b = mesh.makeField();
  A(xTrue, b);
  Field x = mesh.makeField();
  auto res = la::cg(S, A, b, x, {.rtol = 1e-12, .maxIterations = 400});
  EXPECT_TRUE(res.converged);
  S.axpy(x, -1.0, xTrue);
  EXPECT_LT(S.norm(x), 1e-8);
}

TEST_P(KspP, JacobiPreconditionerReducesIterations) {
  sim::SimComm comm(GetParam().ranks, sim::Machine::loopback());
  auto mesh = makeMesh<2>(comm, 2, 6);
  la::FieldSpace<2> S(mesh, 1);
  la::LinOp<Field> A = [&](const Field& x, Field& y) {
    fem::massMatvec(mesh, x, y);
  };
  Field diag = la::assembleDiagonalBlocks<2>(
      mesh, 1, [](const Octant<2>& oct, Real* Ae) {
        fem::ElemMat<2> M{};
        const auto& ref = fem::refMass<2>();
        const Real h2 = oct.physSize() * oct.physSize();
        for (std::size_t k = 0; k < M.size(); ++k) Ae[k] = ref[k] * h2;
      });
  la::LinOp<Field> M = la::makeJacobi(mesh, 1, std::move(diag));
  Field b = mesh.makeField();
  fem::setByPosition<2>(mesh, b, 1,
                        [](const VecN<2>& p, Real* v) { v[0] = p[0] * p[1]; });
  Field x0 = mesh.makeField(), x1 = mesh.makeField();
  auto plain = la::cg(S, A, b, x0, {.rtol = 1e-10, .maxIterations = 600});
  auto pc = la::cg(S, A, b, x1, {.rtol = 1e-10, .maxIterations = 600}, &M);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(pc.converged);
  EXPECT_LE(pc.iterations, plain.iterations);
}

TEST_P(KspP, PoissonDirichletCgAndGmresAgree) {
  sim::SimComm comm(GetParam().ranks, sim::Machine::loopback());
  auto mesh = makeMesh<2>(comm, 3, 5);
  la::FieldSpace<2> S(mesh, 1);
  Field mask = fem::boundaryMask(mesh);
  la::LinOp<Field> K = [&](const Field& x, Field& y) {
    fem::stiffnessMatvec(mesh, x, y);
  };
  la::LinOp<Field> A = fem::dirichletOp(mesh, mask, K);
  // -Laplace u = f with u* = sin(pi x) sin(pi y), f = 2 pi^2 u*.
  auto exact = [](const VecN<2>& p) {
    return std::sin(M_PI * p[0]) * std::sin(M_PI * p[1]);
  };
  Field f = mesh.makeField(), fw = mesh.makeField();
  fem::setByPosition<2>(mesh, f, 1, [&](const VecN<2>& p, Real* v) {
    v[0] = 2 * M_PI * M_PI * exact(p);
  });
  // Weak rhs: M f.
  fem::massMatvec(mesh, f, fw);
  Field g = mesh.makeField();  // zero boundary data
  Field rhs = fem::liftDirichletRhs(mesh, mask, K, fw, g);
  Field xCg = mesh.makeField(), xGm = mesh.makeField(), xBi = mesh.makeField();
  auto r1 = la::cg(S, A, rhs, xCg, {.rtol = 1e-10, .maxIterations = 2000});
  auto r2 = la::gmres(S, A, rhs, xGm,
                      {.rtol = 1e-10, .maxIterations = 2000, .gmresRestart = 50});
  auto r3 =
      la::bicgstab(S, A, rhs, xBi, {.rtol = 1e-10, .maxIterations = 2000});
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  EXPECT_TRUE(r3.converged);
  Field d = mesh.makeField();
  S.sub(xCg, xGm, d);
  EXPECT_LT(S.norm(d), 1e-6);
  S.sub(xCg, xBi, d);
  EXPECT_LT(S.norm(d), 1e-6);
  // Discretization error of the solution itself.
  EXPECT_LT(fem::l2Error<2>(mesh, xCg, exact), 5e-3);
}

INSTANTIATE_TEST_SUITE_P(Ranks, KspP,
                         ::testing::Values(SolverCase{1}, SolverCase{3}));

// Second-order convergence of the Poisson solve under uniform refinement —
// including meshes with hanging nodes.
TEST(Convergence, PoissonSecondOrder) {
  auto solveOn = [](Level coarse, Level fine) {
    sim::SimComm comm(2, sim::Machine::loopback());
    auto mesh = makeMesh<2>(comm, coarse, fine);
    la::FieldSpace<2> S(mesh, 1);
    Field mask = fem::boundaryMask(mesh);
    la::LinOp<Field> K = [&](const Field& x, Field& y) {
      fem::stiffnessMatvec(mesh, x, y);
    };
    la::LinOp<Field> A = fem::dirichletOp(mesh, mask, K);
    auto exact = [](const VecN<2>& p) {
      return std::sin(M_PI * p[0]) * std::sin(M_PI * p[1]);
    };
    Field f = mesh.makeField(), fw = mesh.makeField();
    fem::setByPosition<2>(mesh, f, 1, [&](const VecN<2>& p, Real* v) {
      v[0] = 2 * M_PI * M_PI * exact(p);
    });
    fem::massMatvec(mesh, f, fw);
    Field g = mesh.makeField();
    Field rhs = fem::liftDirichletRhs(mesh, mask, K, fw, g);
    Field x = mesh.makeField();
    auto r = la::cg(S, A, rhs, x, {.rtol = 1e-12, .maxIterations = 6000});
    EXPECT_TRUE(r.converged);
    return fem::l2Error<2>(mesh, x, exact);
  };
  const Real e1 = solveOn(4, 5);
  const Real e2 = solveOn(5, 6);
  const Real rate = std::log2(e1 / e2);
  EXPECT_GT(rate, 1.5);  // asymptotically second-order (1.79 measured at
                         // these sizes; earlier pairs are preasymptotic)
}

// ---- Newton -----------------------------------------------------------------

TEST(Newton, SolvesNodewiseCubic) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto mesh = makeMesh<2>(comm, 2, 4);
  la::FieldSpace<2> S(mesh, 1);
  // F(u) = u + u^3 - b, pointwise. Solution exists and is unique.
  Field b = mesh.makeField();
  fem::setByPosition<2>(mesh, b, 1, [](const VecN<2>& p, Real* v) {
    v[0] = 2.0 * std::sin(3 * p[0]) + p[1];
  });
  auto residual = [&](const Field& u, Field& F) {
    for (int r = 0; r < mesh.nRanks(); ++r)
      for (std::size_t i = 0; i < u[r].size(); ++i)
        F[r][i] = u[r][i] + u[r][i] * u[r][i] * u[r][i] - b[r][i];
  };
  auto makeJ = [&](const Field& u) -> la::LinOp<Field> {
    return [&mesh, u](const Field& x, Field& y) {
      for (int r = 0; r < mesh.nRanks(); ++r)
        for (std::size_t i = 0; i < x[r].size(); ++i)
          y[r][i] = (1.0 + 3.0 * u[r][i] * u[r][i]) * x[r][i];
    };
  };
  Field u = mesh.makeField();
  auto res = la::newton<la::FieldSpace<2>>(S, u, residual, makeJ, nullptr,
                                           {.rtol = 1e-12, .atol = 1e-13});
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 12);
  // Verify: u + u^3 == b.
  Field F = mesh.makeField();
  residual(u, F);
  EXPECT_LT(S.norm(F), 1e-10);
}

}  // namespace
}  // namespace pt
