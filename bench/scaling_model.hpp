// Shared machinery for the paper-scale scaling benches (Figs 4-5).
//
// Strategy (see DESIGN.md §2): the kernels are real — per-element costs are
// *measured* on this machine — while process counts beyond what one node
// can hold are projected with the alpha-beta machine model. The same model
// drives the SimComm-based runs at small rank counts, so the projected
// series and the simulated series agree where they overlap.
//
// The model reflects two properties the paper calls out explicitly:
//  - ghost-exchange communication is overlapped with computation
//    (footnote 1), so the bandwidth term hides under compute until the
//    local partition gets small;
//  - partition imbalance and reduction-tree depth grow slowly with the
//    process count.
#pragma once

#include <cmath>

#include "fem/matvec.hpp"
#include "mesh/mesh.hpp"
#include "obs/phase.hpp"
#include "octree/balance.hpp"
#include "sim/machine.hpp"

namespace pt::bench {

/// Builds a 2D adaptive interface mesh with roughly `targetElems` elements.
inline OctList<2> adaptiveMesh2d(std::size_t targetElems) {
  Level fine = 4;
  OctList<2> tree;
  while (true) {
    tree.clear();
    const Level f = fine;
    buildTree<2>(
        Octant<2>::root(),
        [f](const Octant<2>& o) {
          auto c = o.centerCoords();
          const Real d = std::abs(std::hypot(c[0] - 0.5, c[1] - 0.5) - 0.3);
          return d < 3.0 * o.physSize() ? f : Level(f - 3);
        },
        tree);
    tree = balanceTree(tree);
    if (tree.size() >= targetElems || fine >= 12) break;
    ++fine;
  }
  return tree;
}

/// Measures the real per-element cost of one 3D matrix-free MATVEC
/// (gather + trilinear mass+stiffness apply + scatter) — the kernel class
/// whose scaling Fig 4 reports.
inline double measureMatvecPerElem3d() {
  sim::SimComm comm(1, sim::Machine::loopback());
  auto dist = DistTree<3>::fromGlobal(comm, uniformTree<3>(5));  // 32768
  auto mesh = Mesh<3>::build(comm, dist);
  Field x = mesh.makeField(1), y = mesh.makeField(1);
  fem::setByPosition<3>(mesh, x, 1, [](const VecN<3>& p, Real* v) {
    v[0] = p[0] * p[1] + p[2];
  });
  fem::massMatvec(mesh, x, y);  // warm-up
  obs::Phase t;
  const int reps = 10;
  obs::ScopedPhase lap(t);
  for (int i = 0; i < reps; ++i) {
    fem::matvec<3>(mesh, x, y, 1,
                   [](const Octant<3>& oct, const Real* in, Real* out) {
                     fem::applyMass<3>(oct.physSize(), in, out);
                     fem::applyStiffness<3>(oct.physSize(), in, out);
                   });
  }
  lap.stop();
  return t.seconds() / (reps * double(mesh.globalElemCount()));
}

/// Alpha-beta model of one distributed MATVEC on `p` ranks over a 3D mesh
/// of `nElems` elements.
inline double modelMatvecTime(double nElems, double p, const sim::Machine& m,
                              double perElemSec) {
  const double local = nElems / p;
  // Partition imbalance + deeper reduction trees grow slowly with p.
  const double imbalance = 1.0 + 0.010 * sim::ceilLog2(long(p));
  const double compute = local * perElemSec * imbalance;
  // Ghost layer: ~6 faces x local^(2/3) nodes, 8 B, read + write, with ~26
  // SFC neighbors; NBX-style latency. The bandwidth term is overlapped with
  // the elemental loop (paper footnote 1), the latency term is not.
  const double ghostBytes = 6.0 * std::pow(local, 2.0 / 3.0) * 8.0;
  const double commBeta = 2.0 * m.beta * ghostBytes;
  // Neighbor messages are issued as nonblocking sends and partially
  // coalesced; roughly half their latency is exposed.
  const double commAlpha =
      m.alpha * (0.5 * std::min(26.0, p - 1) + 2.0 * sim::ceilLog2(long(p)));
  return std::max(compute, commBeta) + commAlpha;
}

/// Fraction of a cubic `local`-element partition lying on the partition
/// boundary: ~6 faces of local^(2/3) elements each. This is the share of
/// the elemental loop that must complete before the accumulate exchange
/// can be posted in the split-phase MATVEC (DESIGN.md §15); the remaining
/// interior fraction runs while the exchange is in flight.
inline double boundaryElemFraction(double local) {
  if (local <= 1.0) return 1.0;
  return std::min(1.0, 6.0 * std::pow(local, 2.0 / 3.0) / local);
}

/// One evaluated point of the blocking-vs-overlap MATVEC model — every
/// term the fig4a bench reports per (nElems, p) sweep point.
struct MatvecModelPoint {
  double local = 0;         ///< elements per rank
  double boundaryFrac = 0;  ///< boundary share of the elemental loop
  double compute = 0;       ///< elemental loop, imbalance included [s]
  double commAlpha = 0;     ///< exposed message+reduction latency [s]
  double commBeta = 0;      ///< ghost-layer bandwidth term [s]
  double blocking = 0;      ///< compute + alpha + beta (no overlap) [s]
  double overlap = 0;       ///< split-phase schedule (DESIGN.md §15) [s]
};

/// Evaluates both charge schedules of one distributed MATVEC on `p` ranks.
///
/// Blocking mirrors the historical SimComm charges: the whole elemental
/// loop, then the full exchange cost serially.  Overlap mirrors the
/// split-phase engine: the boundary share of the loop runs first, the
/// accumulate epoch is posted, and the interior share is charged while it
/// is in flight — the exchange (latency and bandwidth) only costs what
/// the interior compute cannot hide. Unlike the legacy modelMatvecTime,
/// no fractional latency-coalescing credit is applied here: the overlap
/// credit is modeled explicitly, not as a fudge factor.
inline MatvecModelPoint modelMatvecPoint(double nElems, double p,
                                         const sim::Machine& m,
                                         double perElemSec) {
  MatvecModelPoint pt;
  pt.local = nElems / p;
  pt.boundaryFrac = boundaryElemFraction(pt.local);
  const double imbalance = 1.0 + 0.010 * sim::ceilLog2(long(p));
  pt.compute = pt.local * perElemSec * imbalance;
  const double ghostBytes = 6.0 * std::pow(pt.local, 2.0 / 3.0) * 8.0;
  pt.commBeta = 2.0 * m.beta * ghostBytes;
  pt.commAlpha =
      m.alpha * (std::min(26.0, p - 1) + 2.0 * sim::ceilLog2(long(p)));
  pt.blocking = pt.compute + pt.commBeta + pt.commAlpha;
  const double boundary = pt.compute * pt.boundaryFrac;
  const double interior = pt.compute - boundary;
  pt.overlap =
      boundary + std::max(interior, pt.commAlpha + pt.commBeta);
  return pt;
}

/// Blocking-schedule MATVEC time: comm charged serially after compute.
inline double modelMatvecTimeBlocking(double nElems, double p,
                                      const sim::Machine& m,
                                      double perElemSec) {
  return modelMatvecPoint(nElems, p, m, perElemSec).blocking;
}

/// Split-phase MATVEC time: interior compute hides the in-flight exchange.
inline double modelMatvecTimeOverlap(double nElems, double p,
                                     const sim::Machine& m,
                                     double perElemSec) {
  return modelMatvecPoint(nElems, p, m, perElemSec).overlap;
}

/// Which MATVEC charge schedule the application model composes over.
enum class CommModel {
  kLegacy,    ///< historical modelMatvecTime (implicit-overlap fudge)
  kBlocking,  ///< explicit blocking schedule
  kOverlap,   ///< explicit split-phase schedule
};

inline double modelMatvecTimeFor(CommModel cm, double nElems, double p,
                                 const sim::Machine& m, double perElemSec) {
  switch (cm) {
    case CommModel::kBlocking:
      return modelMatvecTimeBlocking(nElems, p, m, perElemSec);
    case CommModel::kOverlap:
      return modelMatvecTimeOverlap(nElems, p, m, perElemSec);
    default:
      return modelMatvecTime(nElems, p, m, perElemSec);
  }
}

/// Per-solver cost description for the Fig 5 application model.
struct SolverModel {
  const char* name;
  double itersPerStep;    ///< Krylov iterations per timestep
  double dofs;            ///< block size (compute weight per iteration)
  double reducesPerIter;  ///< global reductions per iteration
  double setupPerStep;    ///< extra per-element work per step (assembly...)
  /// Amdahl-style non-scalable work fraction at the reference process
  /// count: interface-concentrated load imbalance (CH does nearly all its
  /// Newton work on interface elements), preconditioner setup chains, etc.
  /// Fitted once against the per-solver speedups the paper reports in
  /// Fig 5 (see EXPERIMENTS.md); everything else in the model is measured
  /// or first-principles.
  double nonScalable = 0.0;
};

/// Modeled time of `steps` timesteps of one solver phase on p ranks.
inline double modelSolverTime(const SolverModel& s, double nElems, double p,
                              const sim::Machine& m, double perElemSec,
                              int steps, double pRef = 14336.0,
                              CommModel cm = CommModel::kLegacy) {
  const double local = nElems / p;
  const double perIter =
      modelMatvecTimeFor(cm, nElems, p, m, perElemSec * s.dofs) +
      s.reducesPerIter * 2.0 * m.alpha * sim::ceilLog2(long(p));
  const double setup = local * perElemSec * s.setupPerStep;
  // Amdahl correction relative to the reference process count.
  const double amdahl =
      (1.0 - s.nonScalable) + s.nonScalable * (p / pRef);
  return steps * (s.itersPerStep * perIter + setup) * amdahl;
}

}  // namespace pt::bench
