// Screened Poisson at polynomial order p = 2 — the higher-order scenario
// axis the sum-factorized tensor kernels unlock (DESIGN.md §8):
//
//   u - Laplace(u) = f   on the unit square, natural (Neumann) BC,
//
// with the manufactured solution u*(x) = prod_d cos(2 pi x_d) (zero
// Neumann data on every face, so the natural BC is exact) and the matching
// f = (1 + DIM * 4 pi^2) u*. The solve runs GMRES on the degree-2 PSpace
// with the two-level p-multigrid preconditioner: damped Jacobi on the p = 2
// diagonal wrapped around a p = 1 coarse correction through the full
// h-multigrid la::Gmg preconditioner — GMG preconditioning on, end to end.
// The outer Krylov is right-preconditioned GMRES rather than CG because the
// h-GMG V-cycle restricts by injection (not prolongation-transpose) and
// solves its coarsest level with an inner Krylov, so the composed
// preconditioner is mildly nonsymmetric and nonlinear; plain CG floors near
// rel res ~1e-8 under it, while GMRES converges mesh-independently.
//
// Checks (nonzero exit on failure):
//   - GMRES with p-MG + h-GMG converges in a mesh-independent iteration
//     count
//   - the L2 error against u* converges at order p + 1 = 3 under uniform
//     refinement
//   - under PT_VALIDATE=1, the distributed mesh invariants hold at every
//     refinement level
//
// Run:  ./examples/poisson_p2        (PT_VALIDATE=1 for invariant checks)
#include <cmath>
#include <cstdio>

#include "fem/pspace.hpp"
#include "fem/tensor_kernels.hpp"
#include "la/gmg.hpp"
#include "la/ksp.hpp"
#include "la/pc.hpp"
#include "mesh/mesh.hpp"
#include "octree/balance.hpp"
#include "support/buildinfo.hpp"
#include "validate/invariants.hpp"

using namespace pt;

namespace {

constexpr int DIM = 2;
constexpr int P = 2;
using PS = fem::PSpace<DIM, P>;

Real uExact(const VecN<DIM>& x) {
  Real v = 1;
  for (int d = 0; d < DIM; ++d) v *= std::cos(2 * M_PI * x[d]);
  return v;
}

Real fRhs(const VecN<DIM>& x) {
  return (1.0 + DIM * 4.0 * M_PI * M_PI) * uExact(x);
}

/// RHS assembly b_a = int f N_a by per-element Gauss quadrature on the
/// degree-P basis, accumulated across ranks.
Field assembleRhs(const PS& ps) {
  constexpr int kP1 = P + 1;
  constexpr int n = PS::kNpe;
  const auto& b1 = fem::basis1d<P>();
  Field b = ps.makeField();
  const Mesh<DIM>& mesh = ps.mesh();
  for (int r = 0; r < ps.nRanks(); ++r) {
    const auto& rs = ps.rank(r);
    const RankMesh<DIM>& rm = mesh.rank(r);
    for (std::size_t slot = 0; slot < rm.nElems(); ++slot) {
      const auto& oct = rm.elems[rs.order[slot]];
      const Real h = oct.physSize();
      Real jac = 1;
      for (int d = 0; d < DIM; ++d) jac *= h;
      const VecN<DIM> a0 = oct.anchorCoords();
      const std::uint32_t* nodes = &rs.batchNodes[slot * n];
      int qi[DIM];
      for (int q = 0; q < n; ++q) {  // Q = P+1 points per direction
        int t = q;
        Real wq = 1;
        VecN<DIM> xq;
        for (int d = 0; d < DIM; ++d) {
          qi[d] = t % kP1;
          t /= kP1;
          wq *= b1.qw[qi[d]];
          xq[d] = a0[d] + h * b1.qx[qi[d]];
        }
        const Real fw = wq * jac * fRhs(xq);
        for (int a = 0; a < n; ++a) {
          int ta = a;
          Real Na = 1;
          for (int d = 0; d < DIM; ++d) {
            Na *= b1.N[qi[d] * kP1 + ta % kP1];
            ta /= kP1;
          }
          b[r][nodes[a]] += fw * Na;
        }
      }
    }
  }
  ps.accumulate(b);
  return b;
}

/// L2 error of the discrete solution against u* by the same quadrature.
Real l2Error(const PS& ps, const Field& u) {
  constexpr int kP1 = P + 1;
  constexpr int n = PS::kNpe;
  const auto& b1 = fem::basis1d<P>();
  Real err2 = 0;
  const Mesh<DIM>& mesh = ps.mesh();
  for (int r = 0; r < ps.nRanks(); ++r) {
    const auto& rs = ps.rank(r);
    const RankMesh<DIM>& rm = mesh.rank(r);
    for (std::size_t slot = 0; slot < rm.nElems(); ++slot) {
      const auto& oct = rm.elems[rs.order[slot]];
      const Real h = oct.physSize();
      Real jac = 1;
      for (int d = 0; d < DIM; ++d) jac *= h;
      const VecN<DIM> a0 = oct.anchorCoords();
      const std::uint32_t* nodes = &rs.batchNodes[slot * n];
      int qi[DIM];
      for (int q = 0; q < n; ++q) {
        int t = q;
        Real wq = 1;
        VecN<DIM> xq;
        for (int d = 0; d < DIM; ++d) {
          qi[d] = t % kP1;
          t /= kP1;
          wq *= b1.qw[qi[d]];
          xq[d] = a0[d] + h * b1.qx[qi[d]];
        }
        Real uh = 0;
        for (int a = 0; a < n; ++a) {
          int ta = a;
          Real Na = 1;
          for (int d = 0; d < DIM; ++d) {
            Na *= b1.N[qi[d] * kP1 + ta % kP1];
            ta /= kP1;
          }
          uh += Na * u[r][nodes[a]];
        }
        const Real e = uh - uExact(xq);
        err2 += wq * jac * e * e;
      }
    }
  }
  return std::sqrt(err2);
}

}  // namespace

int main() {
  sim::SimComm comm(2, sim::Machine::loopback());
  std::printf("poisson_p2: DIM=%d p=%d simd=%s\n", DIM, P,
              support::simdIsaName());

  bool ok = true;
  Real prevErr = 0;
  int prevIts = 0;
  for (int level = 3; level <= 5; ++level) {
    auto tree = DistTree<DIM>::fromGlobal(comm, uniformTree<DIM>(level));

    // h-GMG on the p = 1 space for the same screened operator (M + K).
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
    la::Gmg<DIM> gmg(comm, tree, factory, {.levels = std::max(2, level - 1)});
    const Mesh<DIM>& mesh = gmg.meshAt(0);

    if (validate::enabled()) {
      validate::Report rep;
      validate::checkMesh(mesh, rep);
      validate::enforce(rep, "poisson_p2 level " + std::to_string(level));
    }

    PS ps(mesh);
    fem::PSpaceLa<DIM, P> S(ps);
    la::LinOp<Field> A = [&ps](const Field& x, Field& y) {
      ps.matvec(x, y, 1.0, 1.0);
    };
    la::LinOp<Field> M =
        fem::makePMultigridPc<DIM, P>(ps, 1.0, 1.0, gmg.preconditioner());

    Field b = assembleRhs(ps);
    Field u = ps.makeField();
    auto res = la::gmres(
        S, A, b, u,
        {.rtol = 1e-10, .maxIterations = 200, .gmresRestart = 50}, &M);
    const Real err = l2Error(ps, u);

    std::size_t nNodes = 0;
    for (int r = 0; r < ps.nRanks(); ++r)
      for (std::size_t i = 0; i < ps.rank(r).owned.size(); ++i)
        nNodes += ps.rank(r).owned[i] ? 1 : 0;
    std::printf(
        "  level %d: %7zu p2-nodes  gmres its %3d  rel res %.2e  L2 err "
        "%.3e\n",
        level, nNodes, res.iterations, res.relResidual, err);

    if (!res.converged) {
      std::printf("  FAIL: GMRES did not converge\n");
      ok = false;
    }
    // Mesh-independent preconditioning: iteration count must not grow by
    // more than a couple per refinement.
    if (prevIts && res.iterations > prevIts + 5) {
      std::printf("  FAIL: iteration count grew %d -> %d\n", prevIts,
                  res.iterations);
      ok = false;
    }
    // L2 order p + 1 = 3: error ratio per uniform refinement ~8 (accept
    // anything safely above order 2.5).
    if (prevErr > 0 && err > prevErr / 5.6) {
      std::printf("  FAIL: L2 error ratio %.2f below order-3 expectation\n",
                  prevErr / err);
      ok = false;
    }
    prevErr = err;
    prevIts = res.iterations;
  }
  std::printf("poisson_p2: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
