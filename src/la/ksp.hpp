// Krylov subspace solvers (the KSP layer of the PETSc substitute):
// preconditioned CG for SPD systems (PP-solve, VU-solve mass systems),
// BiCGStab and restarted GMRES for the nonsymmetric linearized momentum and
// Cahn-Hilliard systems. All solvers are written against the Space concept
// (FieldSpace or any type providing zeros/dot/axpy/...), with the operator
// and preconditioner supplied as callables — i.e. matrix-free friendly.
//
// Workspace pooling: each solver takes an optional KspWorkspace. Without
// one it allocates fresh vectors per call (the historical behavior); with
// one, all scratch vectors, the GMRES Krylov basis, and the Hessenberg
// bookkeeping persist across calls, so a solve in steady state performs
// zero heap allocations. The pooled and fresh paths are bitwise identical:
// every scratch vector is fully overwritten (or explicitly zeroed) before
// its first read, so stale contents never leak into the iteration. The
// workspace is shape-agnostic — vectors are lazily conformed to the Space
// via reshape — but after a remesh the caller must clear() it (stale-shaped
// vectors would otherwise be silently re-zeroed mid-solve).
#pragma once

#include <cmath>
#include <vector>

#include "la/space.hpp"
#include "support/check.hpp"
#include "support/types.hpp"

namespace pt::la {

struct KspResult {
  int iterations = 0;
  Real relResidual = 0;
  bool converged = false;
};

struct KspOptions {
  Real rtol = 1e-8;
  Real atol = 1e-50;
  int maxIterations = 500;
  int gmresRestart = 30;
};

/// Caller-owned reusable solver storage. One workspace serves any mix of
/// cg/bicgstab/gmres/newton calls on the same Space (the pools are sized to
/// the high-water mark); keep one per solve block and clear() on remesh.
template <typename V>
struct KspWorkspace {
  std::vector<V> work;    ///< KSP scratch vectors (named slots per solver)
  std::vector<V> outer;   ///< Newton-level scratch (F, du, -F)
  std::vector<V> basis;   ///< GMRES Krylov basis, kept across restarts/calls
  std::vector<std::vector<Real>> H;  ///< Hessenberg columns (gmresRestart)
  std::vector<Real> cs, sn, g, y;

  /// Drops everything (storage shapes included). Required after any mesh
  /// change; the next solve re-materializes at the new shape.
  void clear() {
    work.clear();
    outer.clear();
    basis.clear();
    H.clear();
    cs.clear();
    sn.clear();
    g.clear();
    y.clear();
  }
};

namespace kspdetail {

/// Grows pool to n vectors and conforms each to the space's current shape
/// (both no-ops — and allocation-free — once warm).
template <typename Space>
void ensure(const Space& S, std::vector<typename Space::V>& pool,
            std::size_t n) {
  while (pool.size() < n) pool.push_back(S.zeros());
  for (auto& v : pool) S.reshape(v);
}

/// Fused r += a*x; return ||r||^2 when the space provides it, else the
/// two-pass fallback (bitwise identical on the serial path by construction).
template <typename Space>
Real axpyNorm2(const Space& S, typename Space::V& y, Real a,
               const typename Space::V& x) {
  if constexpr (requires { S.axpyNorm2(y, a, x); }) {
    return S.axpyNorm2(y, a, x);
  } else {
    S.axpy(y, a, x);
    return S.dot(y, y);
  }
}

}  // namespace kspdetail

/// Preconditioned conjugate gradient. A must be SPD; M approximates A^-1.
template <typename Space>
KspResult cg(const Space& S, const LinOp<typename Space::V>& A,
             const typename Space::V& b, typename Space::V& x,
             const KspOptions& opt = {},
             const LinOp<typename Space::V>* M = nullptr,
             KspWorkspace<typename Space::V>* ws = nullptr) {
  using V = typename Space::V;
  KspWorkspace<V> local;
  KspWorkspace<V>& w = ws ? *ws : local;
  kspdetail::ensure(S, w.work, 4);
  V& r = w.work[0];
  V& z = w.work[1];
  V& p = w.work[2];
  V& Ap = w.work[3];
  A(x, Ap);
  S.sub(b, Ap, r);
  const Real bnorm = std::max(S.norm(b), Real(1e-300));
  Real rnorm = S.norm(r);
  KspResult res;
  if (rnorm / bnorm < opt.rtol || rnorm < opt.atol) {
    res.converged = true;
    res.relResidual = rnorm / bnorm;
    return res;
  }
  if (M) (*M)(r, z); else S.copy(r, z);
  S.copy(z, p);
  Real rz = S.dot(r, z);
  for (int it = 1; it <= opt.maxIterations; ++it) {
    A(p, Ap);
    const Real pAp = S.dot(p, Ap);
    PT_CHECK_MSG(pAp > 0 || rnorm < 1e-13,
                 "CG: operator not positive definite");
    const Real alpha = rz / pAp;
    S.axpy(x, alpha, p);
    rnorm = std::sqrt(kspdetail::axpyNorm2(S, r, -alpha, Ap));
    res.iterations = it;
    res.relResidual = rnorm / bnorm;
    if (res.relResidual < opt.rtol || rnorm < opt.atol) {
      res.converged = true;
      return res;
    }
    if (M) (*M)(r, z); else S.copy(r, z);
    const Real rzNew = S.dot(r, z);
    const Real beta = rzNew / rz;
    rz = rzNew;
    S.aypx(p, beta, z);  // p = z + beta p
  }
  return res;
}

/// BiCGStab for nonsymmetric systems, right-preconditioned.
template <typename Space>
KspResult bicgstab(const Space& S, const LinOp<typename Space::V>& A,
                   const typename Space::V& b, typename Space::V& x,
                   const KspOptions& opt = {},
                   const LinOp<typename Space::V>* M = nullptr,
                   KspWorkspace<typename Space::V>* ws = nullptr) {
  using V = typename Space::V;
  KspWorkspace<V> local;
  KspWorkspace<V>& wsp = ws ? *ws : local;
  kspdetail::ensure(S, wsp.work, 8);
  V& r = wsp.work[0];
  V& rhat = wsp.work[1];
  V& p = wsp.work[2];
  V& v = wsp.work[3];
  V& s = wsp.work[4];
  V& t = wsp.work[5];
  V& ph = wsp.work[6];
  V& sh = wsp.work[7];
  A(x, v);
  S.sub(b, v, r);
  S.copy(r, rhat);
  const Real bnorm = std::max(S.norm(b), Real(1e-300));
  Real rnorm = S.norm(r);
  KspResult res;
  res.relResidual = rnorm / bnorm;
  if (res.relResidual < opt.rtol) {
    res.converged = true;
    return res;
  }
  Real rho = 1, alpha = 1, omega = 1;
  S.setZero(v);
  S.setZero(p);
  for (int it = 1; it <= opt.maxIterations; ++it) {
    const Real rhoNew = S.dot(rhat, r);
    if (std::abs(rhoNew) < 1e-300) break;  // breakdown
    const Real beta = (rhoNew / rho) * (alpha / omega);
    rho = rhoNew;
    // p = r + beta (p - omega v)
    S.axpy(p, -omega, v);
    S.aypx(p, beta, r);
    if (M) (*M)(p, ph); else S.copy(p, ph);
    A(ph, v);
    alpha = rho / S.dot(rhat, v);
    S.copy(r, s);
    S.axpy(s, -alpha, v);
    if (S.norm(s) / bnorm < opt.rtol) {
      S.axpy(x, alpha, ph);
      res.iterations = it;
      res.relResidual = S.norm(s) / bnorm;
      res.converged = true;
      return res;
    }
    if (M) (*M)(s, sh); else S.copy(s, sh);
    A(sh, t);
    const Real tt = S.dot(t, t);
    if (tt < 1e-300) break;
    omega = S.dot(t, s) / tt;
    S.axpy(x, alpha, ph);
    S.axpy(x, omega, sh);
    S.copy(s, r);
    rnorm = std::sqrt(kspdetail::axpyNorm2(S, r, -omega, t));
    res.iterations = it;
    res.relResidual = rnorm / bnorm;
    if (res.relResidual < opt.rtol || rnorm < opt.atol) {
      res.converged = true;
      return res;
    }
    if (std::abs(omega) < 1e-300) break;
  }
  return res;
}

/// Restarted GMRES(m), right-preconditioned. With a workspace, the Krylov
/// basis and Hessenberg storage persist across restarts and calls: basis
/// vector k+1 is fully overwritten (or zeroed on breakdown) before use, and
/// every H/cs/sn/g entry read in cycle k was written earlier in the same
/// cycle, so reuse without re-zeroing is exact.
template <typename Space>
KspResult gmres(const Space& S, const LinOp<typename Space::V>& A,
                const typename Space::V& b, typename Space::V& x,
                const KspOptions& opt = {},
                const LinOp<typename Space::V>* M = nullptr,
                KspWorkspace<typename Space::V>* ws = nullptr) {
  using V = typename Space::V;
  const int m = opt.gmresRestart;
  KspWorkspace<V> local;
  KspWorkspace<V>& wsp = ws ? *ws : local;
  kspdetail::ensure(S, wsp.work, 3);
  V& r = wsp.work[0];
  V& w = wsp.work[1];
  V& z = wsp.work[2];
  // Lazily grown, persistent Krylov basis. Index-based: push_back may move
  // the pool, so never hold references across growth.
  auto Q = [&](int i) -> V& {
    while (static_cast<int>(wsp.basis.size()) <= i)
      wsp.basis.push_back(S.zeros());
    S.reshape(wsp.basis[i]);
    return wsp.basis[i];
  };
  auto& H = wsp.H;
  if (static_cast<int>(H.size()) != m + 1 ||
      (m > 0 && static_cast<int>(H[0].size()) != m))
    H.assign(m + 1, std::vector<Real>(m, 0.0));
  if (static_cast<int>(wsp.cs.size()) < m) wsp.cs.resize(m);
  if (static_cast<int>(wsp.sn.size()) < m) wsp.sn.resize(m);
  if (static_cast<int>(wsp.g.size()) < m + 1) wsp.g.resize(m + 1);
  auto& cs = wsp.cs;
  auto& sn = wsp.sn;
  auto& g = wsp.g;
  const Real bnorm = std::max(S.norm(b), Real(1e-300));
  KspResult res;
  int totalIts = 0;
  while (totalIts < opt.maxIterations) {
    A(x, w);
    S.sub(b, w, r);
    Real beta = S.norm(r);
    res.relResidual = beta / bnorm;
    if (res.relResidual < opt.rtol || beta < opt.atol) {
      res.converged = true;
      return res;
    }
    S.copy(r, Q(0));
    S.scale(Q(0), 1.0 / beta);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;
    int k = 0;
    for (; k < m && totalIts < opt.maxIterations; ++k, ++totalIts) {
      if (M) (*M)(Q(k), z); else S.copy(Q(k), z);
      A(z, w);
      // Modified Gram-Schmidt.
      for (int i = 0; i <= k; ++i) {
        H[i][k] = S.dot(w, Q(i));
        S.axpy(w, -H[i][k], Q(i));
      }
      H[k + 1][k] = S.norm(w);
      if (H[k + 1][k] > 1e-300) {
        S.copy(w, Q(k + 1));
        S.scale(Q(k + 1), 1.0 / H[k + 1][k]);
      } else {
        S.setZero(Q(k + 1));
      }
      // Apply existing Givens rotations, then generate a new one.
      for (int i = 0; i < k; ++i) {
        const Real t = cs[i] * H[i][k] + sn[i] * H[i + 1][k];
        H[i + 1][k] = -sn[i] * H[i][k] + cs[i] * H[i + 1][k];
        H[i][k] = t;
      }
      const Real denom = std::hypot(H[k][k], H[k + 1][k]);
      cs[k] = H[k][k] / denom;
      sn[k] = H[k + 1][k] / denom;
      H[k][k] = denom;
      H[k + 1][k] = 0;
      g[k + 1] = -sn[k] * g[k];
      g[k] = cs[k] * g[k];
      res.iterations = totalIts + 1;
      res.relResidual = std::abs(g[k + 1]) / bnorm;
      if (res.relResidual < opt.rtol) {
        ++k;
        break;
      }
    }
    // Back substitution: y = H^-1 g, then x += M (Q y).
    if (static_cast<int>(wsp.y.size()) < k) wsp.y.resize(k);
    auto& y = wsp.y;
    for (int i = k - 1; i >= 0; --i) {
      Real s = g[i];
      for (int j = i + 1; j < k; ++j) s -= H[i][j] * y[j];
      y[i] = s / H[i][i];
    }
    S.setZero(w);
    for (int i = 0; i < k; ++i) S.axpy(w, y[i], Q(i));
    if (M) {
      (*M)(w, z);
      S.axpy(x, 1.0, z);
    } else {
      S.axpy(x, 1.0, w);
    }
    if (res.relResidual < opt.rtol) {
      res.converged = true;
      return res;
    }
  }
  return res;
}

}  // namespace pt::la
