// Fig 9 companion (single node): scenario-farm throughput. The production
// campaigns behind the source paper (jet-atomization parameter studies,
// Saurabh et al., IPDPS 2023) run many small-to-medium CHNS scenarios, not
// one hero run — the serving question is scenarios per hour, not seconds
// per step. This bench measures the multi-tenant farm (src/farm/) against
// the status-quo sequential campaign on the same machine:
//
//   sequential-1t   the 8 sweep scenarios run one after another on a
//                   serial pool, each with the same auto-checkpoint
//                   rotation the farm jobs carry (per-job wall times
//                   recorded — the calibration series).
//   farm-1t         the same scenarios through the farm on a serial
//                   pool — isolates the farm layer's own overhead
//                   (task queue, hashing, cache, bookkeeping).
//   farm-4t         the same scenarios as concurrent farm jobs on a
//                   4-thread pool (job-level parallelism; each job's
//                   nested parallelFor calls run inline).
//
// Timing. One sample of each config is too noisy to gate on a shared
// host, so the bench runs kRounds rounds: an interleaved sequential-1t /
// farm-1t pair (alternating which side goes first), then farm-4t. The
// farm-layer overhead gate bounds the median per-round ratio
// farm-1t / sequential-1t at <= 1.10; every sample, with the medians and
// quartiles, goes to the JSON.
//
// Throughput claim. On a host with >= 4 cores the >= 2.5x
// scenarios-per-hour gate is measured directly: the median per-round
// ratio sequential-1t / farm-4t. On hosts with fewer hardware threads
// (where 4 OS threads cannot beat serial wall-clock — same caveat as the
// Fig 4/5 single-node benches) the gate is projected with the repo's
// established modeling honesty (bench/scaling_model.hpp): the measured
// per-job sequential times are dealt over 4 workers exactly as the
// TaskQueue deals jobs (round-robin, steal-balanced => makespan is the
// max worker load after greedy rebalancing), and the projected makespan
// must clear the bar. Both numbers are recorded in the JSON either way.
//
// Correctness gates (the bench aborts on violation):
//   * Every farm job's per-step phi fingerprint history and final
//     velocity fingerprint are BITWISE identical to its sequential run —
//     farm concurrency must not perturb a single bit of physics.
//   * The farm layer's steady-state per-step bookkeeping (fingerprint +
//     history slot on a warm job) performs zero heap allocations,
//     asserted with a counting operator new on a sequential control run
//     post-warmup. (The solver's own warm pooled-KSP path is the
//     established zero-alloc claim of tests/test_ksp_threading.cpp; a
//     full step still allocates in assembly/remesh by design.)
//
// The sweep is 4 physics points (Cn x density ratio) x 2 replicas, so the
// shared init-state cache also shows up: replicas restore the adapted
// initial state instead of rebuilding it (hits/misses are reported).
//
// Emits BENCH_farm.json in the "pt-bench-v1" schema (obs/report.hpp;
// validated by tools/trace_summary.py, diffed by tools/bench_compare.py).
// Wrapped by bench/run_farm_bench.sh, which builds the release preset
// first; a debug build aborts in requireReleaseBuild.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <vector>

// Global allocation counter for the zero-steady-state-allocation gate.
// Counting is toggled only around the measured call on the main thread.
// The nothrow forms are replaced too: std::stable_sort's buffer comes from
// nothrow new, and leaving it on the library's allocator while the plain
// delete goes to free() is an alloc-dealloc mismatch under ASan.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<long> g_allocs{0};

void* countedAlloc(std::size_t n) noexcept {
  if (g_countAllocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = countedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return countedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

#include "farm/farm.hpp"
#include "obs/report.hpp"
#include "support/buildinfo.hpp"

using namespace pt;

namespace {

constexpr int kJobs = 8;
constexpr int kFarmThreads = 4;
constexpr int kSteps = 4;
constexpr int kCkEvery = 2;
constexpr int kCkKeep = 2;
constexpr int kRounds = 5;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The sweep: 4 physics points (Cn x rhoMinus) x 2 replicas. Replicas
/// share initial-state identity (different name, same physics), so the
/// farm's shared cache serves the second copy of each point.
std::vector<farm::ScenarioSpec> sweep() {
  std::vector<farm::ScenarioSpec> specs;
  const Real cns[] = {0.06, 0.05};
  const Real rhos[] = {0.1, 0.2};
  for (int rep = 0; rep < 2; ++rep)
    for (Real cn : cns)
      for (Real rho : rhos) {
        farm::ScenarioSpec s;
        char buf[64];
        std::snprintf(buf, sizeof buf, "cn%g_rho%g_r%d", cn, rho, rep);
        s.name = buf;
        s.Cn = cn;
        s.rhoMinus = rho;
        s.dropR = 0.2;
        s.seedLevel = 3;
        s.coarseLevel = 2;
        s.interfaceLevel = 5;
        s.remeshEvery = 2;
        s.steps = kSteps;
        s.ranks = 2;
        specs.push_back(std::move(s));
      }
  return specs;
}

struct SeqResult {
  std::vector<Real> history;  ///< phi fingerprint after each step
  Real finalVel = 0;          ///< velocity fingerprint after the last step
};

/// Linearly interpolated q-quantile of v (0 <= q <= 1).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// sequential-1t: the sweep one job after another on the serial pool.
/// Returns the wall time; fills each job's history and wall time.
double runSequential(const std::vector<farm::ScenarioSpec>& specs,
                     std::vector<SeqResult>& seq,
                     std::vector<double>& jobSec) {
  std::filesystem::remove_all("bench_farm_seq");
  seq.assign(specs.size(), {});
  jobSec.assign(specs.size(), 0);
  const double t0 = now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double tJob0 = now();
    sim::SimComm comm(specs[i].ranks, sim::Machine::loopback());
    chns::ChnsSolver<2> s = farm::buildScenario(comm, specs[i]);
    const std::string dir = "bench_farm_seq/job_" + std::to_string(i);
    std::filesystem::create_directories(dir);
    chns::enableAutoCheckpoint(s, dir, kCkEvery, kCkKeep,
                               farm::specHash(specs[i]));
    while (s.stepsTaken() < specs[i].steps) {
      s.step();
      seq[i].history.push_back(
          farm::fieldFingerprint(s.phi(), s.mesh().nRanks()));
    }
    seq[i].finalVel = farm::fieldFingerprint(s.velocity(), s.mesh().nRanks());
    jobSec[i] = now() - tJob0;
  }
  return now() - t0;
}

/// farm-1t: the same sweep through the farm on the serial pool, job for
/// job the same work as sequential-1t. Returns the wall time, or a
/// negative value if a job did not finish.
double runFarmSerial(const std::vector<farm::ScenarioSpec>& specs) {
  std::filesystem::remove_all("bench_farm_ck1");
  farm::ScenarioFarm::Options fopt;
  fopt.rootDir = "bench_farm_ck1";
  fopt.ckEvery = kCkEvery;
  fopt.ckKeep = kCkKeep;
  fopt.shareInitState = false;
  farm::ScenarioFarm f(fopt);
  for (const auto& spec : specs) f.addJob(spec);
  const double t0 = now();
  f.run();
  const double sec = now() - t0;
  return f.countState(farm::JobState::kDone) == int(specs.size()) ? sec : -1;
}

/// One farm-4t run: its wall time (negative when a job failed or diverged
/// from its sequential run) and what the report keeps of it.
struct FarmRun {
  double sec = -1;
  long cacheHits = 0, cacheMisses = 0;
  int jobsDone = 0;
  std::vector<double> jobWallSec;
};

/// farm-4t: the sweep as concurrent farm jobs on a kFarmThreads pool, with
/// the shared init-state cache. Every job's per-step phi fingerprints and
/// final velocity fingerprint must equal its sequential run bitwise.
FarmRun runFarmThreaded(const std::vector<farm::ScenarioSpec>& specs,
                        const std::vector<SeqResult>& seq) {
  std::filesystem::remove_all("bench_farm_ck");
  support::ThreadPool::instance().setThreads(kFarmThreads);
  farm::ScenarioFarm::Options fopt;
  fopt.rootDir = "bench_farm_ck";
  fopt.ckEvery = kCkEvery;
  fopt.ckKeep = kCkKeep;
  std::vector<Real> farmFinalVel(specs.size(), 0);
  fopt.postStepHook = [&](int id, chns::ChnsSolver<2>& s) {
    if (s.stepsTaken() == kSteps)  // one writer per slot: no race
      farmFinalVel[id] = farm::fieldFingerprint(s.velocity(),
                                                s.mesh().nRanks());
  };
  farm::ScenarioFarm f(fopt);
  for (const auto& spec : specs) f.addJob(spec);
  const double t0 = now();
  f.run();
  const double sec = now() - t0;
  support::ThreadPool::instance().setThreads(1);

  FarmRun out;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const farm::JobRecord& rec = f.job(int(i));
    if (rec.state != farm::JobState::kDone) {
      std::fprintf(stderr, "FAIL: job %zu (%s) retired %s: %s\n", i,
                   specs[i].name.c_str(), farm::jobStateName(rec.state),
                   rec.error.c_str());
      return out;
    }
    if (rec.history.size() != seq[i].history.size()) {
      std::fprintf(stderr, "FAIL: job %zu history length %zu != %zu\n", i,
                   rec.history.size(), seq[i].history.size());
      return out;
    }
    for (std::size_t k = 0; k < seq[i].history.size(); ++k)
      if (rec.history[k] != seq[i].history[k]) {
        std::fprintf(stderr,
                     "FAIL: job %zu (%s) step %zu phi fingerprint %.17g != "
                     "sequential %.17g (must be bitwise identical)\n",
                     i, specs[i].name.c_str(), k + 1, rec.history[k],
                     seq[i].history[k]);
        return out;
      }
    if (farmFinalVel[i] != seq[i].finalVel) {
      std::fprintf(stderr,
                   "FAIL: job %zu (%s) final velocity fingerprint %.17g != "
                   "sequential %.17g\n",
                   i, specs[i].name.c_str(), farmFinalVel[i],
                   seq[i].finalVel);
      return out;
    }
    out.jobWallSec.push_back(rec.wallSec);
  }
  out.sec = sec;
  out.cacheHits = f.initCacheHits();
  out.cacheMisses = f.initCacheMisses();
  out.jobsDone = f.countState(farm::JobState::kDone);
  return out;
}

}  // namespace

int main() {
  support::requireReleaseBuild("fig9_scenario_farm");
  const std::vector<farm::ScenarioSpec> specs = sweep();

  // --- kRounds rounds of sequential-1t / farm-1t pairs, then farm-4t ---
  // Interleaving and alternating the pair order make a drift in host
  // speed over the run load every config alike.
  support::ThreadPool::instance().setThreads(1);
  std::vector<SeqResult> seq;
  std::vector<std::vector<double>> jobSamples(specs.size());
  std::vector<double> seqSamples, farm1Samples, overheads, farmSamples,
      speedups;
  FarmRun farm4;
  for (int k = 0; k < kRounds; ++k) {
    std::vector<SeqResult> seqK;
    std::vector<double> jobK;
    double tSeq = 0, tFarm1 = 0;
    if (k % 2 == 0) {
      tSeq = runSequential(specs, seqK, jobK);
      tFarm1 = runFarmSerial(specs);
    } else {
      tFarm1 = runFarmSerial(specs);
      tSeq = runSequential(specs, seqK, jobK);
    }
    if (tFarm1 < 0) {
      std::fprintf(stderr, "FAIL: farm-1t did not drain all jobs\n");
      return 1;
    }
    if (k == 0) seq = std::move(seqK);
    farm4 = runFarmThreaded(specs, seq);
    if (farm4.sec < 0) return 1;
    for (std::size_t i = 0; i < specs.size(); ++i)
      jobSamples[i].push_back(jobK[i]);
    seqSamples.push_back(tSeq);
    farm1Samples.push_back(tFarm1);
    overheads.push_back(tFarm1 / tSeq - 1.0);
    farmSamples.push_back(farm4.sec);
    speedups.push_back(tSeq / farm4.sec);
    std::printf("round %d (%s first): sequential-1t %.2f s, farm-1t %.2f s "
                "(%+.1f%%), farm-%dt %.2f s (%.2fx)\n",
                k + 1, k % 2 == 0 ? "sequential" : "farm", tSeq, tFarm1,
                overheads.back() * 100, kFarmThreads, farm4.sec,
                speedups.back());
  }
  std::vector<double> seqJobSec(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    seqJobSec[i] = quantile(jobSamples[i], 0.5);
  const double seqSec = quantile(seqSamples, 0.5);
  const double farm1Sec = quantile(farm1Samples, 0.5);
  const double overhead = quantile(overheads, 0.5);
  const double overheadQ1 = quantile(overheads, 0.25);
  const double overheadQ3 = quantile(overheads, 0.75);
  const double farmSec = quantile(farmSamples, 0.5);
  std::printf("sequential-1t: %zu scenarios in %.2f s (median of %d)\n",
              specs.size(), seqSec, kRounds);
  std::printf("farm-1t:       %zu scenarios in %.2f s (median of %d; farm "
              "overhead median %+.1f%%, quartiles %+.1f%% .. %+.1f%%, gate "
              "<= 10%%)\n",
              specs.size(), farm1Sec, kRounds, overhead * 100,
              overheadQ1 * 100, overheadQ3 * 100);
  std::printf("farm-%dt:       %zu scenarios in %.2f s (median of %d; init "
              "cache: %ld hits, %ld misses)\n",
              kFarmThreads, specs.size(), farmSec, kRounds, farm4.cacheHits,
              farm4.cacheMisses);
  std::printf("per-job histories and final fields bitwise identical to "
              "sequential (%d jobs x %d steps, %d farm-%dt runs)\n",
              kJobs, kSteps, kRounds, kFarmThreads);
  if (overhead > 0.10) {
    std::fprintf(stderr,
                 "FAIL: farm layer overhead %.1f%% over sequential (median "
                 "of %d pairs)\n",
                 overhead * 100, kRounds);
    return 1;
  }

  // --- zero-steady-state-allocation gate (sequential control run) ------
  // A warm job's farm bookkeeping — phi fingerprint + history slot — must
  // not allocate. (This is exactly what ScenarioFarm's post-step hook does
  // on a non-checkpoint step; the history vector is pre-reserved.)
  long bookkeepingAllocs = -1;
  {
    sim::SimComm comm(specs[0].ranks, sim::Machine::loopback());
    chns::ChnsSolver<2> s = farm::buildScenario(comm, specs[0]);
    s.step();
    s.step();  // warm
    std::vector<Real> hist;
    hist.reserve(std::size_t(kSteps));
    hist.resize(1);
    g_allocs.store(0);
    g_countAllocs.store(true);
    const Real fp = farm::fieldFingerprint(s.phi(), s.mesh().nRanks());
    hist[0] = fp;
    g_countAllocs.store(false);
    bookkeepingAllocs = g_allocs.load();
    if (bookkeepingAllocs != 0 || hist[0] != fp) {
      std::fprintf(stderr,
                   "FAIL: steady-state farm bookkeeping performed %ld heap "
                   "allocations (must be 0)\n",
                   bookkeepingAllocs);
      return 1;
    }
  }
  std::printf("steady-state farm bookkeeping: 0 heap allocations\n");

  // --- throughput -------------------------------------------------------
  const double measuredSpeedup = quantile(speedups, 0.5);
  const double seqPerHour = specs.size() / (seqSec / 3600.0);
  const double farmPerHour = specs.size() / (farmSec / 3600.0);

  // Projected makespan on kFarmThreads workers from the measured per-job
  // sequential times: greedy longest-processing-time assignment — the
  // steal-balanced equilibrium of the TaskQueue (an idle participant
  // always takes remaining work, so no worker idles while jobs wait).
  std::vector<double> sorted = seqJobSec;
  std::sort(sorted.rbegin(), sorted.rend());
  std::vector<double> load(kFarmThreads, 0);
  for (double t : sorted)
    *std::min_element(load.begin(), load.end()) += t;
  const double projectedSec =
      *std::max_element(load.begin(), load.end()) * (1.0 + overhead);
  const double projectedSpeedup = seqSec / projectedSec;

  const bool canMeasure =
      std::thread::hardware_concurrency() >= unsigned(kFarmThreads);
  const double gatedSpeedup = canMeasure ? measuredSpeedup : projectedSpeedup;
  std::printf("\nscenarios/hour: sequential %.0f, farm-4t measured %.0f "
              "(%.2fx); projected on %d cores %.2fx\n",
              seqPerHour, farmPerHour, measuredSpeedup, kFarmThreads,
              projectedSpeedup);
  std::printf("speedup gate (%s, %u hw threads): %.2fx, target >= 2.5x\n",
              canMeasure ? "measured" : "projected",
              std::thread::hardware_concurrency(), gatedSpeedup);
  if (gatedSpeedup < 2.5) {
    std::fprintf(stderr,
                 "FAIL: farm speedup %.2fx below the 2.5x acceptance bar\n",
                 gatedSpeedup);
    return 1;
  }

  obs::BenchReport rep("fig9_scenario_farm");
  rep.info["build_type"] = support::buildType();
  rep.info["workload"] =
      "8 scenarios (4 physics x 2 replicas), 2D drop, seed level 3, "
      "interface level 5, 4 steps, 2 simulated ranks each, ck every 2";
  rep.info["histories_identical"] = "true";
  rep.info["speedup_gate"] = canMeasure ? "measured" : "projected";
  {
    obs::BenchConfig c;
    c.name = "sequential-1t";
    c.metrics["wall_sec"] = seqSec;
    c.metrics["wall_sec_q1"] = quantile(seqSamples, 0.25);
    c.metrics["wall_sec_q3"] = quantile(seqSamples, 0.75);
    c.metrics["scenarios_per_hour"] = seqPerHour;
    c.series["wall_sec_samples"] = seqSamples;
    for (double t : seqJobSec) c.series["job_wall_sec"].push_back(t);
    for (const auto& r : seq) c.series["final_phi"].push_back(r.history.back());
    rep.configs.push_back(std::move(c));
  }
  {
    obs::BenchConfig c;
    c.name = "farm-1t";
    c.metrics["wall_sec"] = farm1Sec;
    c.metrics["wall_sec_q1"] = quantile(farm1Samples, 0.25);
    c.metrics["wall_sec_q3"] = quantile(farm1Samples, 0.75);
    c.metrics["farm_overhead_frac"] = overhead;
    c.metrics["farm_overhead_frac_q1"] = overheadQ1;
    c.metrics["farm_overhead_frac_q3"] = overheadQ3;
    c.series["wall_sec_samples"] = farm1Samples;
    c.series["farm_overhead_frac_samples"] = overheads;
    rep.configs.push_back(std::move(c));
  }
  {
    obs::BenchConfig c;
    c.name = "farm-4t";
    c.metrics["wall_sec"] = farmSec;
    c.metrics["wall_sec_q1"] = quantile(farmSamples, 0.25);
    c.metrics["wall_sec_q3"] = quantile(farmSamples, 0.75);
    c.metrics["scenarios_per_hour"] = farmPerHour;
    c.counters["init_cache_hits"] = farm4.cacheHits;
    c.counters["init_cache_misses"] = farm4.cacheMisses;
    c.counters["jobs_done"] = farm4.jobsDone;
    c.counters["steady_bookkeeping_allocs"] = bookkeepingAllocs;
    c.series["wall_sec_samples"] = farmSamples;
    c.series["speedup_samples"] = speedups;
    c.series["job_wall_sec"] = farm4.jobWallSec;
    rep.configs.push_back(std::move(c));
  }
  rep.derived["speedup_farm_measured"] = measuredSpeedup;
  rep.derived["speedup_farm_projected"] = projectedSpeedup;
  rep.derived["speedup_farm"] = gatedSpeedup;
  rep.derived["scenarios_per_hour_farm"] = farmPerHour;
  rep.derived["scenarios_per_hour_sequential"] = seqPerHour;
  if (!rep.write("BENCH_farm.json")) {
    std::perror("BENCH_farm.json");
    return 1;
  }
  std::printf("wrote BENCH_farm.json\n");
  return 0;
}
