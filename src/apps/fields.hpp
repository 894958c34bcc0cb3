// Analytic phase fields and initial conditions for the workloads the paper
// motivates: drops, filaments, drop arrays and the jet-atomization inflow.
// phi follows the CHNS convention: -1 in the immersed (liquid) phase,
// +1 in the bulk (gas), with a tanh profile of thickness eps ~ Cn.
#pragma once

#include <cmath>
#include <vector>

#include "support/types.hpp"
#include "support/vecn.hpp"

namespace pt::apps {

/// Signed tanh interface profile: -1 inside (signedDist < 0), +1 outside.
inline Real tanhProfile(Real signedDist, Real eps) {
  return std::tanh(signedDist / (std::sqrt(2.0) * eps));
}

/// Spherical drop of radius R centered at c.
template <int DIM>
Real dropPhi(const VecN<DIM>& x, const VecN<DIM>& c, Real R, Real eps) {
  Real r2 = 0;
  for (int d = 0; d < DIM; ++d) r2 += (x[d] - c[d]) * (x[d] - c[d]);
  return tanhProfile(std::sqrt(r2) - R, eps);
}

/// Axis-aligned filament (capsule): segment from a to b with radius R.
template <int DIM>
Real filamentPhi(const VecN<DIM>& x, const VecN<DIM>& a, const VecN<DIM>& b,
                 Real R, Real eps) {
  VecN<DIM> ab = b - a, ax = x - a;
  const Real len2 = std::max(dot(ab, ab), Real(1e-30));
  Real t = dot(ax, ab) / len2;
  t = std::min(std::max(t, Real(0)), Real(1));
  VecN<DIM> closest = a + t * ab;
  return tanhProfile(norm(x - closest) - R, eps);
}

/// Union of phases (liquid wins): pointwise min of the signed fields.
inline Real phaseUnion(Real a, Real b) { return std::min(a, b); }

/// A "lollipop": big drop with an attached thin filament — the canonical
/// case where connected-component labeling fails but erosion/dilation
/// identifies only the filament (paper Fig 1b discussion).
template <int DIM>
Real lollipopPhi(const VecN<DIM>& x, Real eps) {
  VecN<DIM> c{}, a{}, b{};
  for (int d = 0; d < DIM; ++d) c[d] = a[d] = b[d] = 0.5;
  c[0] = 0.30;
  a[0] = 0.42;
  b[0] = 0.85;
  return phaseUnion(dropPhi<DIM>(x, c, 0.18, eps),
                    filamentPhi<DIM>(x, a, b, 0.025, eps));
}

/// Liquid jet entering from the x=0 face: a cylinder of radius R along x up
/// to penetration depth `tip`, with a sinusoidal perturbation that seeds
/// atomization.
template <int DIM>
Real jetPhi(const VecN<DIM>& x, Real R, Real tip, Real eps,
            Real perturbAmp = 0.0, Real perturbK = 40.0) {
  Real r2 = 0;
  for (int d = 1; d < DIM; ++d) r2 += (x[d] - 0.5) * (x[d] - 0.5);
  const Real r = std::sqrt(r2);
  const Real Reff = R * (1.0 + perturbAmp * std::sin(perturbK * x[0]));
  // Signed distance to the capped cylinder (approximate but smooth).
  const Real dRadial = r - Reff;
  const Real dAxial = x[0] - tip;
  const Real sd = std::max(dRadial, dAxial);
  return tanhProfile(sd, eps);
}

}  // namespace pt::apps
