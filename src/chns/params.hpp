// Non-dimensional parameters and mixture laws of the thermodynamically
// consistent Cahn-Hilliard Navier-Stokes model (paper Sec II-A).
//
//   rho(phi) = ((rho+ - rho-)/(2 rho+)) phi + ((rho+ + rho-)/(2 rho+))
//   eta(phi) = ((eta+ - eta-)/(2 eta+)) phi + ((eta+ + eta-)/(2 eta+))
//   m(phi)   = sqrt(1 - phi^2)           (degenerate mobility, guarded)
//   psi(phi) = (phi^2 - 1)^2 / 4         (double well), psi' = phi^3 - phi
//   J_i      = ((rho- - rho+)/(2 rho+ Cn)) m(phi) d mu/dx_i
#pragma once

#include <algorithm>
#include <cmath>

#include "support/types.hpp"
#include "support/vecn.hpp"

namespace pt::chns {

struct Params {
  Real Re = 100.0;   ///< Reynolds
  Real We = 10.0;    ///< Weber
  Real Pe = 100.0;   ///< Peclet
  Real Cn = 0.02;    ///< ambient Cahn (local Cn may override per element)
  Real Fr = 1.0e9;   ///< Froude (large = gravity off)
  Real rhoPlus = 1.0;   ///< density of the phi=+1 phase (reference)
  Real rhoMinus = 1.0;  ///< density of the phi=-1 phase
  Real etaPlus = 1.0;
  Real etaMinus = 1.0;
  int gravityDir = -1;  ///< downward axis index, or -1 for none
  Real mobilityFloor = 1e-4;  ///< guard for the degenerate mobility

  Real rho(Real phi) const {
    const Real c = clamp(phi);
    return ((rhoPlus - rhoMinus) / (2 * rhoPlus)) * c +
           (rhoPlus + rhoMinus) / (2 * rhoPlus);
  }

  Real eta(Real phi) const {
    const Real c = clamp(phi);
    return ((etaPlus - etaMinus) / (2 * etaPlus)) * c +
           (etaPlus + etaMinus) / (2 * etaPlus);
  }

  Real mobility(Real phi) const {
    const Real c = clamp(phi);
    return std::sqrt(std::max(Real(0), 1 - c * c)) + mobilityFloor;
  }

  static Real psi(Real phi) {
    const Real t = phi * phi - 1;
    return 0.25 * t * t;
  }
  static Real dpsi(Real phi) { return phi * phi * phi - phi; }
  static Real d2psi(Real phi) { return 3 * phi * phi - 1; }

  /// Coefficient of the diffusive mass flux J (paper Eq 1), per unit
  /// d mu/dx: ((rho- - rho+)/(2 rho+ Cn)) m(phi).
  Real fluxCoeff(Real phi, Real cnLocal) const {
    return ((rhoMinus - rhoPlus) / (2 * rhoPlus * cnLocal)) * mobility(phi);
  }

 private:
  static Real clamp(Real phi) { return std::min(Real(1.2), std::max(Real(-1.2), phi)); }
};

}  // namespace pt::chns
