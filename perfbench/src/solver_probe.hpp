// Solver-facing helpers shared by the 2D and 3D workloads: counter
// snapshots, the per-op field checks, the replay of the layers remeshNow()
// calls, and the mass-matrix MATVEC probe. Templates on the dimension, so
// each workload translation unit instantiates its own.
#pragma once

#include <cmath>
#include <string>

#include "chns/solver.hpp"
#include "harness.hpp"

namespace perfbench {

/// Largest |phi| the checks accept. The CH solve may overshoot the pure
/// phases slightly near a sharp interface; anything past this is a broken
/// solve or transfer, not round-off.
inline constexpr double kPhiBoundTol = 0.05;

template <int DIM>
LayerSample sampleSolver(pt::chns::ChnsSolver<DIM>& s,
                         const pt::sim::SimComm& comm) {
  LayerSample out;
  for (const auto& [name, st] : s.timers().all()) {
    out.sec[name] = st.seconds();
    out.calls[name] = st.calls();
  }
  for (const auto& [name, c] : s.telemetry().metrics.counters())
    out.counters[name] = c.value;
  out.collectives = double(comm.stats().collectives);
  out.messages = double(comm.stats().messages);
  out.bytes = comm.stats().bytes;
  out.elems = double(s.mesh().globalElemCount());
  return out;
}

inline bool allFinite(const pt::Field& f) {
  for (const auto& rank : f)
    for (pt::Real v : rank)
      if (!std::isfinite(v)) return false;
  return true;
}

/// The per-op check: every field finite and max|phi| <= 1 + kPhiBoundTol.
/// Returns an empty string when the state passes.
template <int DIM>
std::string checkFields(pt::chns::ChnsSolver<DIM>& s) {
  if (!allFinite(s.phi())) return "phi not finite";
  if (!allFinite(s.mu())) return "mu not finite";
  if (!allFinite(s.velocity())) return "velocity not finite";
  if (!allFinite(s.pressure())) return "pressure not finite";
  const double m = s.mesh().maxAbs(s.phi());
  if (m > 1.0 + kPhiBoundTol)
    return "max|phi| = " + std::to_string(m) + " exceeds 1 + " +
           std::to_string(kPhiBoundTol);
  return {};
}

/// Replays, on the solver's current state, the layer functions remeshNow()
/// calls: identification, the remesh phases, mesh build and the field
/// transfer. The results are discarded; only the spans are kept.
template <int DIM>
void replayRemesh(pt::chns::ChnsSolver<DIM>& s) {
  using namespace pt;
  const auto& opt = s.options();
  Span all("replay.remesh");
  sim::PerRank<std::vector<Level>> want;
  localcahn::ElemField cn;
  {
    Span sp("localcahn::identifyLocalCahn");
    cn = localcahn::identifyLocalCahn(s.mesh(), s.phi(), opt.referenceLevel,
                                      opt.identify);
  }
  {
    Span sp("localcahn::interfaceRefineLevels");
    want = localcahn::interfaceRefineLevels<DIM>(
        s.mesh(), s.phi(), cn, opt.identify.cnFine, opt.deltaStar,
        opt.coarseLevel, opt.interfaceLevel, opt.featureLevel);
  }
  obs::Phase refine, coarsen, balance, repartition;
  int depth = 0;
  std::int64_t t = 0;
  DistTree<DIM> tree = [&] {
    Span sp("pt::remesh");
    depth = sp.depth();
    t = nowNs();
    return remesh(s.tree(), want,
                  RemeshTimers{&refine, &coarsen, &balance, &repartition});
  }();
  // pt::remesh times its phases itself; they run back to back, so lay them
  // out as consecutive child spans of the remesh span.
  for (auto [name, ph] : {std::pair{"amr.refine", &refine},
                          std::pair{"amr.coarsen", &coarsen},
                          std::pair{"octree.balance", &balance},
                          std::pair{"octree.repartition", &repartition}}) {
    const auto dt = std::int64_t(ph->seconds() * 1e9);
    recordSpan(name, t, t + dt, depth + 1);
    t += dt;
  }
  std::unique_ptr<Mesh<DIM>> mesh;
  {
    Span sp("Mesh::build");
    mesh = std::make_unique<Mesh<DIM>>(Mesh<DIM>::build(s.mesh().comm(), tree));
  }
  const auto tables = intergrid::gatherTransferTables(s.tree());
  {
    Span sp("intergrid::transferNodalMany");
    auto nodal = intergrid::transferNodalMany<DIM>(
        s.mesh(),
        {{&s.phi(), 1}, {&s.mu(), 1}, {&s.velocity(), DIM}, {&s.pressure(), 1}},
        *mesh, &tables);
  }
  {
    Span sp("intergrid::transferCell");
    auto cell = intergrid::transferCell(s.tree(), cn, tree, &tables);
  }
}

/// Mass-matrix MATVEC throughput on the solver's current mesh, in
/// million elements per second.
template <int DIM>
double matvecProbe(pt::chns::ChnsSolver<DIM>& s) {
  Span sp("fem::massMatvec");
  pt::Field y = s.mesh().makeField(1);
  const double per = timePerCall(
      [&] { pt::fem::massMatvec(s.mesh(), s.phi(), y); }, 0.2, 5);
  return double(s.mesh().globalElemCount()) / per / 1e6;
}

}  // namespace perfbench
