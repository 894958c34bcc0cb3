// One-stop telemetry bundle (DESIGN.md §12): phase accumulators, metrics
// registry, and per-simulated-rank stats, plus the env hookups (PT_TRACE).
// ChnsSolver owns one of these; examples and benches read from it and feed
// StepReporter / BenchReport (obs/report.hpp).
#pragma once

#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/rankstats.hpp"
#include "obs/trace.hpp"

namespace pt::obs {

template <typename Comm>
struct Telemetry {
  Telemetry() { Tracer::initFromEnv(); }

  PhaseSet phases;
  Registry metrics;
  RankPhases<Comm> ranks;
};

}  // namespace pt::obs
