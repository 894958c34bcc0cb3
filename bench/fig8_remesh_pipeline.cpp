// Fig 8 companion (single node): end-to-end cost of the adaptivity step —
// identify (Algorithms 1-4) -> remesh (Algorithms 5-7) -> mesh rebuild ->
// inter-grid transfer -> solver-cache refresh — through the remesh
// pipeline fast path (DESIGN.md §11: ping-pong + dirty-list local-Cahn
// sweeps, O(1) refine provenance, no-op remesh detection, one routing-table
// gather per remesh epoch):
//
//   fast       1 thread.
//   fast-4t    same, thread pool at 4 threads.
//
// The workload is a steady 2D drop on 4 simulated ranks: the first
// adaptivity calls refine the interface band (level 3 -> 7), and every
// later call reproduces the same want vector — the steady-interface regime
// where the paper's Fig 8 requires remeshing to stay a small fraction of a
// timestep; the no-op exits skip rebuild/transfer/invalidation there. Both
// configurations MUST end with bitwise-identical trees and fields — the
// bench exits nonzero on any mismatch. A final timed solver step gives the
// remesh-to-solve cost fraction.
//
// Emits BENCH_remesh.json in the unified "pt-bench-v1" schema
// (obs/report.hpp; validated by tools/trace_summary.py, diffed by
// tools/bench_compare.py). Wrapped by bench/run_remesh_bench.sh; a debug
// build aborts in requireReleaseBuild before any number is produced.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/fields.hpp"
#include "chns/solver.hpp"
#include "obs/report.hpp"
#include "support/buildinfo.hpp"
#include "support/thread_pool.hpp"

using namespace pt;

namespace {

constexpr int kRanks = 4;
constexpr int kRemeshCalls = 12;  ///< adapting transient + steady repeats
constexpr int kTrials = 3;

const char* const kPhases[] = {"remesh-identify", "remesh-refine",
                               "remesh-coarsen",  "remesh-balance",
                               "remesh-repartition", "remesh-meshbuild",
                               "remesh-transfer"};

struct ConfigResult {
  std::string name;
  double remeshTotalSec = 0;  ///< median-of-trials sum over kRemeshCalls
  double stepSec = 0;         ///< one CHNS step on the final adapted mesh
  std::map<std::string, obs::PhaseStat> phases;  ///< summed over the sequence
  long noopRemeshes = 0, meshRebuilds = 0, cacheInvalidations = 0;
  // Bitwise identity gate.
  std::vector<std::size_t> leafCounts;
  Real phiSum = 0, muSum = 0, velSum = 0, pSum = 0, cnSum = 0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

Real fingerprint(const Field& f, int nRanks) {
  Real s = 0;
  for (int r = 0; r < nRanks; ++r)
    for (Real v : f[r]) s += v;
  return s;
}

chns::ChnsSolver<2> makeSolver(sim::SimComm& comm) {
  chns::ChnsOptions<2> opt;
  opt.params.Cn = 0.02;
  opt.dt = 1e-3;
  opt.blocksPerStep = 1;
  opt.remeshEvery = 0;  // the bench drives remeshNow() directly
  opt.coarseLevel = 3;
  opt.interfaceLevel = 7;
  opt.featureLevel = 7;
  opt.referenceLevel = 7;
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });
  return s;
}

ConfigResult runConfig(const std::string& name, int threads) {
  support::ThreadPool::instance().setThreads(threads);
  ConfigResult res;
  res.name = name;

  std::vector<double> trialSecs;
  for (int trial = 0; trial < kTrials; ++trial) {
    sim::SimComm comm(kRanks, sim::Machine::loopback());
    auto s = makeSolver(comm);

    const auto t0 = std::chrono::steady_clock::now();
    for (int call = 0; call < kRemeshCalls; ++call) s.remeshNow();
    const auto t1 = std::chrono::steady_clock::now();
    trialSecs.push_back(std::chrono::duration<double>(t1 - t0).count());

    if (trial + 1 < kTrials) continue;
    // Last trial: record phase breakdown, counters, fingerprints, and one
    // timed solver step on the final adapted mesh.
    for (const char* ph : kPhases)
      res.phases.emplace(
          ph, obs::PhaseStat(s.timers()[ph].seconds(), s.timers()[ph].calls()));
    res.noopRemeshes = s.noopRemeshes();
    res.meshRebuilds = s.meshRebuilds();
    res.cacheInvalidations = s.cacheInvalidations();
    for (int r = 0; r < kRanks; ++r)
      res.leafCounts.push_back(s.tree().localOf(r).size());
    res.phiSum = fingerprint(s.phi(), kRanks);
    res.muSum = fingerprint(s.mu(), kRanks);
    res.velSum = fingerprint(s.velocity(), kRanks);
    res.pSum = fingerprint(s.pressure(), kRanks);
    for (int r = 0; r < kRanks; ++r)
      for (Real v : s.elemCn()[r]) res.cnSum += v;

    const auto s0 = std::chrono::steady_clock::now();
    s.step();
    const auto s1 = std::chrono::steady_clock::now();
    res.stepSec = std::chrono::duration<double>(s1 - s0).count();
  }
  res.remeshTotalSec = median(trialSecs);
  support::ThreadPool::instance().setThreads(1);
  return res;
}

bool sameState(const ConfigResult& a, const ConfigResult& b) {
  return a.leafCounts == b.leafCounts && a.phiSum == b.phiSum &&
         a.muSum == b.muSum && a.velSum == b.velSum && a.pSum == b.pSum &&
         a.cnSum == b.cnSum;
}

void writeJson(const std::vector<ConfigResult>& cfgs) {
  obs::BenchReport rep("fig8_remesh_pipeline");
  rep.info["build_type"] = support::buildType();
  rep.info["hardware_threads"] =
      std::to_string(std::thread::hardware_concurrency());
  rep.info["workload"] =
      "2D drop, " + std::to_string(kRanks) + " ranks, coarse 3 -> interface " +
      "7, " + std::to_string(kRemeshCalls) + " remesh calls, " +
      std::to_string(kTrials) + " trials, Cn=0.02";
  rep.info["states_identical"] = "true";
  for (const auto& cfg : cfgs) {
    obs::BenchConfig c;
    c.name = cfg.name;
    c.metrics["remesh_total_sec"] = cfg.remeshTotalSec;
    c.metrics["step_sec"] = cfg.stepSec;
    c.phases = cfg.phases;
    c.counters["noop_remeshes"] = cfg.noopRemeshes;
    c.counters["mesh_rebuilds"] = cfg.meshRebuilds;
    c.counters["cache_invalidations"] = cfg.cacheInvalidations;
    rep.configs.push_back(std::move(c));
  }
  rep.derived["remesh_to_solve_fraction_fast"] =
      cfgs[0].remeshTotalSec / kRemeshCalls / cfgs[0].stepSec;
  if (!rep.write("BENCH_remesh.json")) {
    std::perror("BENCH_remesh.json");
    std::exit(1);
  }
}

}  // namespace

int main() {
  support::requireReleaseBuild("fig8_remesh_pipeline");

  std::vector<ConfigResult> cfgs;
  cfgs.push_back(runConfig("fast", /*threads=*/1));
  cfgs.push_back(runConfig("fast-4t", /*threads=*/4));

  // Correctness gate: identical final trees and field fingerprints.
  if (!sameState(cfgs[0], cfgs[1])) {
    std::fprintf(stderr,
                 "FAIL: fast-4t final state diverged from fast "
                 "(trees and fields must be bitwise identical)\n");
    return 1;
  }
  std::printf("states: identical across all configs (%d remesh calls)\n\n",
              kRemeshCalls);

  for (const auto& cfg : cfgs) {
    std::printf(
        "%-10s adaptivity total %7.3f s   (noop %ld, rebuilds %ld, "
        "invalidations %ld)   step %7.3f s\n",
        cfg.name.c_str(), cfg.remeshTotalSec, cfg.noopRemeshes,
        cfg.meshRebuilds, cfg.cacheInvalidations, cfg.stepSec);
    for (const auto& [k, v] : cfg.phases)
      std::printf("  %-20s %8.4f s\n", k.c_str(), v.seconds());
  }

  std::printf("\nspeedup fast-4t vs fast: %.2fx\n",
              cfgs[0].remeshTotalSec / cfgs[1].remeshTotalSec);
  if (std::thread::hardware_concurrency() < 4)
    std::printf("note: only %u hardware thread(s) — fast-4t measures "
                "threaded-path overhead/identity, not scaling\n",
                std::thread::hardware_concurrency());
  std::printf("remesh-to-solve fraction per call: fast %.3f\n",
              cfgs[0].remeshTotalSec / kRemeshCalls / cfgs[0].stepSec);

  writeJson(cfgs);
  std::printf("\nwrote BENCH_remesh.json\n");
  return 0;
}
