// Fig 5 companion (single node): per-solve wall-time breakdown of one CHNS
// time step:
//
//   fallback-serial  default options, but every GMG coarse solve fails
//                    (coarseSolve capped at one iteration with rtol 1e-30):
//                    each linear solve tries one V-cycle and runs the rest
//                    on the pooled, factorized/cached (block-)Jacobi
//                    fallback, 1 thread.
//   fallback-2t      same, with the thread pool at 2 threads.
//   gmg-serial       default options — matrix-free GMG V-cycles
//                    preconditioning the CH Newton, NS momentum and
//                    pressure-Poisson solves, 1 thread.
//   gmg-2t           same, thread pool at 2 threads.
//
// The workload (2D drop, uniform level-6 mesh, 3 time steps) deliberately
// stays below the kVecThreadMin / kSpmvThreadMin thresholds, so every
// configuration runs the bitwise-identical serial reduction path and the
// two fallback convergence histories MUST match exactly — the bench aborts
// if any iteration count, residual, or field fingerprint differs. The GMG
// configs run a different preconditioner (different Krylov history by
// design), so they are held to (a) bitwise identity between gmg-serial and
// gmg-2t — the V-cycle is thread-count invariant — and (b) solution
// fingerprints matching fallback-serial to solver tolerance.
//
// A second section measures the blocked BSR SpMV microkernel against the
// generic runtime-block-size loop at bs=4 (the DIM+2 coupled-system size)
// on an FEM-like sparsity, asserting bitwise-equal products.
//
// Emits BENCH_solver.json in the unified "pt-bench-v1" schema
// (obs/report.hpp; validated by tools/trace_summary.py, diffed by
// tools/bench_compare.py). Wrapped by bench/run_solver_bench.sh, which
// builds the release preset first; a debug build aborts in
// requireReleaseBuild before any number is produced.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/fields.hpp"
#include "chns/solver.hpp"
#include "la/seqmat.hpp"
#include "obs/report.hpp"
#include "support/buildinfo.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

using namespace pt;

namespace {

constexpr int kSteps = 3;
constexpr int kLevel = 6;

const char* const kPhaseNames[] = {"vec", "op", "pc", "assemble"};
const char* const kSolveNames[] = {"ch", "ns", "pp", "vu"};

struct StepRecord {
  // Convergence history — must be identical across configurations.
  int chNewton = 0, chLin = 0, ns = 0, pp = 0, vu = 0;
  Real chRes = 0, nsRes = 0, ppRes = 0;
  Real phiSum = 0, velSum = 0;
  // Wall time — the quantity under test.
  double solveSec = 0;                     // ch+ns+pp+vu totals
  std::map<std::string, double> timers;    // per-solve and per-phase deltas
};

struct ConfigResult {
  std::string name;
  std::vector<StepRecord> steps;
  double medianStepSec = 0;
  std::map<std::string, obs::PhaseStat> phases;  ///< cumulative, watched only
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Left-to-right sum of every entry of a field — a deterministic, bitwise
/// comparable fingerprint of the solution state.
Real fingerprint(const Field& f, int nRanks) {
  Real s = 0;
  for (int r = 0; r < nRanks; ++r)
    for (Real v : f[r]) s += v;
  return s;
}

ConfigResult runConfig(const std::string& name, int threads,
                       bool failCoarseSolves) {
  support::ThreadPool::instance().setThreads(threads);
  sim::SimComm comm(1, sim::Machine::loopback());
  chns::ChnsOptions<2> opt;
  opt.params.Cn = 0.03;
  opt.dt = 1e-3;
  opt.blocksPerStep = 2;
  if (failCoarseSolves)
    for (la::GmgOptions* g : {&opt.gmgCh, &opt.gmgNs, &opt.gmgPp})
      g->coarseSolve = {.rtol = 1e-30, .maxIterations = 1};
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(kLevel));
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });

  std::vector<std::string> watched;
  for (const char* sv : kSolveNames) {
    watched.push_back(std::string(sv) + "-solve");
    for (const char* ph : kPhaseNames)
      watched.push_back(std::string(sv) + "-" + ph);
  }

  ConfigResult res;
  res.name = name;
  std::map<std::string, double> prev;
  for (const auto& w : watched) prev[w] = 0;
  for (int st = 0; st < kSteps; ++st) {
    s.step();
    StepRecord rec;
    rec.chNewton = s.lastChNewton_.iterations;
    rec.chLin = s.lastChNewton_.totalLinearIterations;
    rec.chRes = s.lastChNewton_.residualNorm;
    rec.ns = s.lastNs_.iterations;
    rec.nsRes = s.lastNs_.relResidual;
    rec.pp = s.lastPp_.iterations;
    rec.ppRes = s.lastPp_.relResidual;
    rec.vu = s.lastVuIterations_;
    rec.phiSum = fingerprint(s.phi(), s.mesh().nRanks());
    rec.velSum = fingerprint(s.velocity(), s.mesh().nRanks());
    for (const auto& w : watched) {
      const double now = s.timers()[w].seconds();
      rec.timers[w] = now - prev[w];
      prev[w] = now;
    }
    for (const char* sv : kSolveNames)
      rec.solveSec += rec.timers[std::string(sv) + "-solve"];
    res.steps.push_back(std::move(rec));
  }
  std::vector<double> stepSecs;
  for (const auto& r : res.steps) stepSecs.push_back(r.solveSec);
  res.medianStepSec = median(stepSecs);
  for (auto& [name2, stat] : s.timers().all())
    if (std::find(watched.begin(), watched.end(), name2) != watched.end())
      res.phases.emplace(name2, stat);
  support::ThreadPool::instance().setThreads(1);
  return res;
}

bool sameHistory(const StepRecord& a, const StepRecord& b) {
  return a.chNewton == b.chNewton && a.chLin == b.chLin && a.ns == b.ns &&
         a.pp == b.pp && a.vu == b.vu && a.chRes == b.chRes &&
         a.nsRes == b.nsRes && a.ppRes == b.ppRes && a.phiSum == b.phiSum &&
         a.velSum == b.velSum;
}

/// FEM-like 5-point block sparsity, identical to the abl4 generator.
void buildBsr(int nb, int bs, la::BsrMatrix& B) {
  const int side = static_cast<int>(std::sqrt(double(nb)));
  Rng rng(17);
  for (int r = 0; r < nb; ++r) {
    const int x = r % side, y = r / side;
    auto link = [&](int c) {
      if (c < 0 || c >= nb) return;
      for (int oi = 0; oi < bs; ++oi)
        for (int oj = 0; oj < bs; ++oj)
          B.setValue(r * bs + oi, c * bs + oj,
                     rng.uniform(-1, 1) + (r == c && oi == oj ? 8.0 : 0));
    };
    link(r);
    if (x > 0) link(r - 1);
    if (x < side - 1) link(r + 1);
    if (y > 0) link(r - side);
    if (y < side - 1) link(r + side);
  }
  B.assemblyEnd();
}

struct BsrResult {
  double genericSec = 0, blockedSec = 0, speedup = 0;
  bool bitwiseEqual = false;
};

BsrResult benchBsr() {
  const int nb = 16384, bs = 4, reps = 50, trials = 9;
  la::BsrMatrix B(nb, nb, bs);
  buildBsr(nb, bs, B);
  std::vector<Real> x(std::size_t(nb) * bs);
  Rng rng(23);
  for (Real& v : x) v = rng.uniform(-1, 1);
  std::vector<Real> yg, yb;
  B.multiplyGeneric(x, yg);
  B.multiply(x, yb);
  BsrResult res;
  res.bitwiseEqual = yg == yb;
  auto time = [&](auto&& fn) {
    std::vector<double> ts;
    for (int t = 0; t < trials; ++t) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < reps; ++i) fn();
      const auto t1 = std::chrono::steady_clock::now();
      ts.push_back(std::chrono::duration<double>(t1 - t0).count() / reps);
    }
    return median(ts);
  };
  res.genericSec = time([&] { B.multiplyGeneric(x, yg); });
  res.blockedSec = time([&] { B.multiply(x, yb); });
  res.speedup = res.genericSec / res.blockedSec;
  return res;
}

void writeJson(const std::vector<ConfigResult>& cfgs, const BsrResult& bsr) {
  obs::BenchReport rep("fig5_solver_breakdown");
  rep.info["build_type"] = support::buildType();
  rep.info["workload"] = "2D drop, uniform level-" + std::to_string(kLevel) +
                         ", " + std::to_string(kSteps) +
                         " steps, dt=1e-3, Cn=0.03";
  rep.info["histories_identical"] = "true";
  for (const auto& cfg : cfgs) {
    obs::BenchConfig c;
    c.name = cfg.name;
    c.metrics["median_step_solver_sec"] = cfg.medianStepSec;
    c.phases = cfg.phases;
    long long chNewton = 0, chLin = 0, ns = 0, pp = 0, vu = 0;
    for (const auto& r : cfg.steps) {
      c.series["solver_sec"].push_back(r.solveSec);
      chNewton += r.chNewton;
      chLin += r.chLin;
      ns += r.ns;
      pp += r.pp;
      vu += r.vu;
    }
    c.counters["ch_newton_iters"] = chNewton;
    c.counters["ch_ksp_iters"] = chLin;
    c.counters["ns_ksp_iters"] = ns;
    c.counters["pp_ksp_iters"] = pp;
    c.counters["vu_ksp_iters"] = vu;
    rep.configs.push_back(std::move(c));
  }
  rep.derived["bsr_bs4_generic_sec"] = bsr.genericSec;
  rep.derived["bsr_bs4_blocked_sec"] = bsr.blockedSec;
  rep.derived["bsr_bs4_speedup"] = bsr.speedup;
  if (!rep.write("BENCH_solver.json")) {
    std::perror("BENCH_solver.json");
    std::exit(1);
  }
}

}  // namespace

int main() {
  support::requireReleaseBuild("fig5_solver_breakdown");

  std::vector<ConfigResult> cfgs;
  cfgs.push_back(runConfig("fallback-serial", /*threads=*/1,
                           /*failCoarseSolves=*/true));
  cfgs.push_back(runConfig("fallback-2t", /*threads=*/2,
                           /*failCoarseSolves=*/true));
  cfgs.push_back(runConfig("gmg-serial", /*threads=*/1,
                           /*failCoarseSolves=*/false));
  cfgs.push_back(runConfig("gmg-2t", /*threads=*/2,
                           /*failCoarseSolves=*/false));

  // Correctness gate 1: identical convergence histories and solution
  // fingerprints across the fallback configurations, step by step.
  for (int st = 0; st < kSteps; ++st)
    if (!sameHistory(cfgs[0].steps[st], cfgs[1].steps[st])) {
      std::fprintf(stderr,
                   "FAIL: fallback-2t step %d diverged from fallback-serial "
                   "(histories must be bitwise identical)\n",
                   st);
      return 1;
    }
  // Correctness gate 2: the V-cycle is thread-count invariant, so the two
  // GMG configs must agree bitwise with each other...
  for (int st = 0; st < kSteps; ++st)
    if (!sameHistory(cfgs[2].steps[st], cfgs[3].steps[st])) {
      std::fprintf(stderr,
                   "FAIL: gmg-2t step %d diverged from gmg-serial "
                   "(V-cycle must be thread-count invariant)\n",
                   st);
      return 1;
    }
  // ...and converge to the same solution as fallback-serial within solver
  // tolerance (different preconditioner => different Krylov path, same
  // fixed point; outer tolerances are 1e-8, give the fingerprints 1e-6).
  for (int st = 0; st < kSteps; ++st) {
    const StepRecord& a = cfgs[0].steps[st];
    const StepRecord& g = cfgs[2].steps[st];
    const Real tolPhi = 1e-6 * std::max<Real>(std::abs(a.phiSum), 1.0);
    const Real tolVel = 1e-6 * std::max<Real>(std::abs(a.velSum), 1.0);
    if (std::abs(a.phiSum - g.phiSum) > tolPhi ||
        std::abs(a.velSum - g.velSum) > tolVel) {
      std::fprintf(stderr,
                   "FAIL: gmg-serial step %d solution fingerprint off "
                   "fallback-serial beyond solver tolerance "
                   "(phi %.17g vs %.17g, vel %.17g vs %.17g)\n",
                   st, a.phiSum, g.phiSum, a.velSum, g.velSum);
      return 1;
    }
  }
  std::printf(
      "histories: fallback configs identical, gmg thread-invariant and "
      "on fallback-serial to tolerance (%d steps)\n\n",
      kSteps);

  for (const auto& cfg : cfgs) {
    std::printf("%-16s median step solver time %8.3f s\n", cfg.name.c_str(),
                cfg.medianStepSec);
    const auto& last = cfg.steps.back().timers;
    for (const char* sv : kSolveNames) {
      std::printf("  %s-solve %7.3f s  (", sv,
                  last.at(std::string(sv) + "-solve"));
      for (const char* ph : kPhaseNames)
        std::printf("%s %.3f%s", ph, last.at(std::string(sv) + "-" + ph),
                    std::string(ph) == "assemble" ? "" : ", ");
      std::printf(")\n");
    }
  }

  BsrResult bsr = benchBsr();
  if (!bsr.bitwiseEqual) {
    std::fprintf(stderr, "FAIL: blocked BSR SpMV differs from generic\n");
    return 1;
  }
  std::printf("\nBSR bs=4 SpMV: generic %.3f ms, blocked %.3f ms -> %.2fx "
              "(target >= 1.3x), products bitwise equal\n",
              bsr.genericSec * 1e3, bsr.blockedSec * 1e3, bsr.speedup);

  writeJson(cfgs, bsr);
  std::printf("\nwrote BENCH_solver.json\n");
  return 0;
}
