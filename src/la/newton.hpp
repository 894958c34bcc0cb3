// Newton-Krylov nonlinear solver (SNES analogue) used by the fully implicit
// CH-solve. Residual and Jacobian application are supplied as callables; the
// inner linear solve is GMRES with a caller-provided preconditioner.
#pragma once

#include <functional>

#include "la/ksp.hpp"
#include "la/space.hpp"
#include "support/types.hpp"

namespace pt::la {

struct NewtonResult {
  int iterations = 0;
  Real residualNorm = 0;
  bool converged = false;
  int totalLinearIterations = 0;
};

/// Fixed step damping factor: every iteration takes the full Newton step.
inline constexpr Real kNewtonDamping = 1.0;

struct NewtonOptions {
  Real rtol = 1e-8;
  Real atol = 1e-12;
  int maxIterations = 20;
  KspOptions linear{};
};

/// Solves F(u) = 0. residual(u, F) evaluates F; makeJacobianOp(u) returns
/// the linearization J(u) as an operator; makePrecond(u) optionally returns
/// a preconditioner for J(u) (may be null).
template <typename Space>
NewtonResult newton(
    const Space& S, typename Space::V& u,
    const std::function<void(const typename Space::V&, typename Space::V&)>&
        residual,
    const std::function<LinOp<typename Space::V>(const typename Space::V&)>&
        makeJacobianOp,
    const std::function<LinOp<typename Space::V>(const typename Space::V&)>&
        makePrecond = nullptr,
    const NewtonOptions& opt = {},
    KspWorkspace<typename Space::V>* ws = nullptr) {
  using V = typename Space::V;
  KspWorkspace<V> local;
  KspWorkspace<V>& wsp = ws ? *ws : local;
  kspdetail::ensure(S, wsp.outer, 3);
  V& F = wsp.outer[0];
  V& du = wsp.outer[1];
  V& negF = wsp.outer[2];
  NewtonResult res;
  residual(u, F);
  Real f0 = S.norm(F);
  res.residualNorm = f0;
  if (f0 < opt.atol) {
    res.converged = true;
    return res;
  }
  for (int it = 1; it <= opt.maxIterations; ++it) {
    LinOp<V> J = makeJacobianOp(u);
    LinOp<V> M;
    if (makePrecond) M = makePrecond(u);
    S.setZero(du);
    S.setZero(negF);
    S.axpy(negF, -1.0, F);
    KspResult lin = gmres(S, J, negF, du, opt.linear, M ? &M : nullptr, &wsp);
    res.totalLinearIterations += lin.iterations;
    S.axpy(u, kNewtonDamping, du);
    residual(u, F);
    res.residualNorm = S.norm(F);
    res.iterations = it;
    if (res.residualNorm < opt.atol || res.residualNorm < opt.rtol * f0) {
      res.converged = true;
      return res;
    }
  }
  return res;
}

}  // namespace pt::la
