// The closed loop shared by the single-solver workloads (bubble-2d,
// drop-adapt3d): repeated set-up, timed ops with per-op checks, and in
// traced runs the per-layer accumulation, layer replay, MATVEC probe and
// the 1-vs-4-thread timing.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "solver_probe.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

template <int DIM>
struct SolverRun {
  std::unique_ptr<pt::sim::SimComm> comm;
  std::unique_ptr<pt::chns::ChnsSolver<DIM>> solver;
};

template <int DIM>
struct SolverWorkload {
  int setupReps = 3;   ///< set-ups per run; setup_s is their median
  int minOps = 20;     ///< the loop runs at least this many ops
  int exactOps = 8;    ///< exact counts average over this prefix of ops
  /// Traced runs alternate blocks of this many traced and untraced ops;
  /// with episodes, a whole number of episodes.
  int traceBlock = 8;
  int speedupOps = 4;  ///< ops timed on each side of support.speedup_4t
  /// When > 0, the loop runs episodes of this many ops, each started by
  /// `restart` from the set-up state, and ends on an episode boundary, so
  /// the mix of ops does not depend on how many fit in the run.
  int episodeOps = 0;
  const char* opSpan = "op";
  std::vector<std::string> coveragePhases;
  std::function<SolverRun<DIM>()> setup;
  std::function<void(SolverRun<DIM>&)> restart;
  std::function<void(SolverRun<DIM>&, long)> op;  ///< op index from 0
  /// Checks at the end of every episode (or of the run, without episodes);
  /// the loop itself checks every op and calls validateNow at the end.
  std::function<void(SolverRun<DIM>&, RunResult&)> episodeChecks;
};

template <int DIM>
RunResult runSolverWorkload(const RunOptions& o,
                            const SolverWorkload<DIM>& w) {
  using pt::support::ThreadPool;
  RunResult res;
  res.minOps = w.minOps;
  ThreadPool::instance().setThreads(1);
  setTracing(o.trace);

  SolverRun<DIM> run;
  for (int k = 0; k < w.setupReps; ++k) {
    run = {};  // release the previous repetition's state first
    const double t0 = wallNow();
    {
      Span sp("setup");
      run = w.setup();
    }
    res.setupS.push_back(wallNow() - t0);
  }

  // Traced runs alternate blocks of traced and untraced ops; the first
  // block is traced, so the exact-count prefix always is.
  LayerTotals all, exact;
  double tracedWall = 0;
  const double tEnd = wallNow() + o.seconds;
  const auto episodeEnd = [&](long i) {
    return w.episodeOps <= 0 || i % w.episodeOps == 0;
  };
  for (long i = 0; i < w.minOps || wallNow() < tEnd || !episodeEnd(i); ++i) {
    if (i > 0 && w.episodeOps > 0 && episodeEnd(i)) {
      if (w.episodeChecks) w.episodeChecks(run, res);
      w.restart(run);
    }
    const bool traced = o.trace && (i / w.traceBlock) % 2 == 0;
    setTracing(traced);
    LayerSample before;
    if (traced) before = sampleSolver(*run.solver, *run.comm);
    ++res.attempted;
    const double c0 = cpuNow(), t0 = wallNow();
    try {
      Span sp(w.opSpan);
      w.op(run, i);
    } catch (const std::exception& e) {
      res.fail("op " + std::to_string(i) + " threw: " + e.what());
      break;
    }
    const double dt = wallNow() - t0;
    res.opCpu += cpuNow() - c0;
    res.busyWall += dt;
    (traced || !o.trace ? res.opWall : res.opWallUntraced).push_back(dt);
    if (traced) {
      const LayerSample delta = sampleSolver(*run.solver, *run.comm) - before;
      all.add(delta);
      if (i < w.exactOps) exact.add(delta);
      tracedWall += dt;
    }
    if (std::string bad = checkFields(*run.solver); !bad.empty())
      res.fail("op " + std::to_string(i) + ": " + bad);
  }
  setTracing(o.trace);

  try {
    run.solver->validateNow("end of run");
  } catch (const std::exception& e) {
    res.fail(std::string("validateNow: ") + e.what());
  }
  if (w.episodeChecks) w.episodeChecks(run, res);
  if (!o.trace) return res;

  for (int k = 0; k < 3; ++k) replayRemesh(*run.solver);
  res.layer = solverLayerMetrics(all, exact);
  res.layer.push_back({"fem.matvec_melem_per_s", matvecProbe(*run.solver),
                       "Melem/s"});
  res.layer.push_back(
      {"bench.phase_coverage", phaseCoverage(all, tracedWall, w.coveragePhases),
       "ratio"});

  // The same op prefix from a fresh set-up on 1 and on 4 pool threads.
  const auto timeOps = [&](int threads) {
    Span sp(threads == 1 ? "speedup.1t" : "speedup.4t");
    ThreadPool::instance().setThreads(threads);
    SolverRun<DIM> r = w.setup();
    double t = 0;
    for (int i = 0; i < w.speedupOps; ++i) {
      const double t0 = wallNow();
      w.op(r, i);
      t += wallNow() - t0;
    }
    ThreadPool::instance().setThreads(1);
    return t;
  };
  const double t1 = timeOps(1);
  const double t4 = timeOps(4);
  res.layer.push_back({"support.speedup_4t", t1 / t4, "ratio"});
  res.notes.push_back("speedup probe: " + std::to_string(w.speedupOps) +
                      " ops, 1 thread " + std::to_string(t1) +
                      " s, 4 threads " + std::to_string(t4) + " s");
  return res;
}

}  // namespace perfbench
