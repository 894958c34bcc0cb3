// One solve family of the CHNS step (CH, NS, PP or VU): the pooled Krylov
// workspace, the fallback preconditioner, the optional GMG V-cycle and the
// graceful-degradation policy that decides between them (DESIGN.md §13).
//
// The policy, shared by every family:
//   - the V-cycle is rebuilt on every preconditioner() call; a build that
//     raises CheckError retires the family;
//   - the fallback (a pooled (block-)Jacobi) is cached per (mesh, dt) and
//     kept warm while the V-cycle runs, so a failed apply can swap to it;
//   - an apply whose V-cycle throws CheckError or returns non-finite values
//     counts one fallback, and every later apply of that preconditioner
//     skips the V-cycle;
//   - a retired family runs on its fallback alone until reset(), which the
//     solver calls on every real remesh;
//   - accept() rejects a GMG-preconditioned iterate beyond kSaneCap.
// The caller decides when a solve counts as capped (retireIf) and what a
// rejected iterate is replaced with.
//
// Counters gmgPcFallbacks and gmgRetirements are shared by all families of
// one registry. A family holds no reference into the solver that owns it:
// the V-cycle closure owns its la::Gmg, so tests can drive a family with
// fake V-cycles.
#pragma once

#include <cmath>
#include <functional>

#include "la/ksp.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "support/check.hpp"

namespace pt::chns {

class SolveFamily {
 public:
  using Op = la::LinOp<Field>;

  /// Publish-time sanity bound for GMG-preconditioned solutions. A capped
  /// Krylov loop behind a near-singular V-cycle can return astronomically
  /// large (finite) iterates; squaring those in the next residual assembly
  /// overflows to NaN. Physical fields in these nondimensional systems are
  /// O(1e2) at worst, so anything beyond the cap means the solve diverged
  /// and its result must not enter the state.
  static constexpr Real kSaneCap = 1e8;

  /// `gmg` says whether the family carries a V-cycle (VU has none). Every
  /// apply is timed under `pcPhase`, which must be a string literal (it
  /// also names the trace span).
  SolveFamily(bool gmg, obs::PhaseSet& phases, obs::Registry& metrics,
              const char* pcPhase)
      : gmg_(gmg),
        phases_(&phases),
        pcPhase_(pcPhase),
        fallbacks_(&metrics.counter("gmgPcFallbacks")),
        retirements_(&metrics.counter("gmgRetirements")) {}

  /// Drops everything tied to the current mesh and un-retires the family.
  void reset() {
    ws_.clear();
    fallback_ = nullptr;
    fallbackDt_ = -1;
    vcycle_ = nullptr;
    retired_ = false;
  }

  bool usesGmg() const { return gmg_ && !retired_; }
  la::KspWorkspace<Field>& workspace() { return ws_; }

  /// The preconditioner for one linear solve. Builds the V-cycle first
  /// (when the family uses GMG), then the fallback if (mesh, dt) changed.
  /// `post`, when set, runs on z after either path. The returned operator
  /// refers to this family: use it only within the solve it was built for.
  Op preconditioner(Real dt, const std::function<Op()>& buildVcycle,
                    const std::function<Op()>& buildFallback,
                    std::function<void(Field&)> post = nullptr) {
    if (usesGmg()) {
      try {
        vcycle_ = buildVcycle();
      } catch (const CheckError&) {
        // A degenerate state can make a level's smoother blocks singular.
        retire();
      }
    }
    if (!fallback_ || fallbackDt_ != dt) {
      fallback_ = buildFallback();
      fallbackDt_ = dt;
    }
    if (!usesGmg())
      return [this, post = std::move(post)](const Field& r, Field& z) {
        obs::TimedSpan pt(*phases_, pcPhase_);
        fallback_(r, z);
        if (post) post(z);
      };
    // Swapping the preconditioner mid-Krylov weakens the subspace
    // identities the methods assume, but it only fires when the V-cycle is
    // returning garbage: any finite apply beats NaNs or a thrown step.
    return [this, post = std::move(post), failed = false](
               const Field& r, Field& z) mutable {
      obs::TimedSpan pt(*phases_, pcPhase_);
      if (failed || !applyVcycle(r, z)) {
        if (!failed) fallbacks_->inc();
        failed = true;
        fallback_(r, z);
      }
      if (post) post(z);
    };
  }

  /// Retires the family's V-cycle until reset(); counts one retirement.
  /// No-op when the family does not use GMG (off, or already retired).
  void retire() {
    if (!usesGmg()) return;
    retired_ = true;
    retirements_->inc();
    vcycle_ = nullptr;
  }
  void retireIf(bool capped) {
    if (capped) retire();
  }

  /// False, counting one fallback, when the family runs with GMG and x
  /// holds a value beyond kSaneCap or a NaN. Always true with GMG off.
  bool accept(const Field& x) {
    if (!gmg_) return true;
    for (const auto& part : x)
      for (const Real v : part)
        if (!(std::abs(v) <= kSaneCap)) {  // catches NaN too
          fallbacks_->inc();
          return false;
        }
    return true;
  }

  void countFallback() { fallbacks_->inc(); }

 private:
  /// One guarded V-cycle apply: false, leaving z unusable, when the cycle
  /// throws CheckError (a GmgCoarseSolveError, or a coarse Krylov check
  /// tripping on a degenerate input) or writes a non-finite value.
  bool applyVcycle(const Field& r, Field& z) {
    try {
      vcycle_(r, z);
    } catch (const CheckError&) {
      return false;
    }
    for (const auto& part : z)
      for (const Real v : part)
        if (!std::isfinite(v)) return false;
    return true;
  }

  bool gmg_;
  bool retired_ = false;
  obs::PhaseSet* phases_;
  const char* pcPhase_;
  obs::Counter* fallbacks_;
  obs::Counter* retirements_;
  la::KspWorkspace<Field> ws_;
  Op fallback_;
  Real fallbackDt_ = -1;
  Op vcycle_;
};

}  // namespace pt::chns
