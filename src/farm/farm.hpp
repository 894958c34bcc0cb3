// Multi-tenant scenario farm (DESIGN.md §14): runs N concurrent CHNS
// scenarios as jobs on the work-stealing TaskQueue layered over
// support::ThreadPool — the serving layer that turns a single-run
// reproduction into a campaign engine.
//
// Architecture:
//
//  * Each job owns its entire world: its own sim::SimComm, its own
//    ChnsSolver (all solver state is per-instance — workspaces, operator
//    caches, GMG hierarchy, telemetry), its own checkpoint directory.
//    Nothing mutable is shared between jobs; the only cross-job state is
//    the read-only InitStateCache below and the farm's own bookkeeping
//    (guarded by one mutex, touched at job boundaries and once per step).
//  * Jobs execute inside pool participants, so every parallelFor a solver
//    issues runs inline — a job's history is bitwise identical to the same
//    scenario run sequentially on a serial pool, and job-level parallelism
//    is where the throughput comes from (bench/fig9_scenario_farm.cpp).
//  * Shared read-only caching: jobs with identical initial-state identity
//    (scenario.hpp::initStateHash — same physics, geometry, mesh config)
//    share one adapted initial state, held as an immutable in-memory
//    checkpoint. The first job to need it builds it (seed tree + identify
//    + initial remesh) and publishes it; later jobs restore from it, which
//    is bitwise identical to building fresh (checkpoint round-trips are
//    exact) and skips the whole adaptation pipeline. First writer wins;
//    the cache is append-only and entries are never mutated after publish.
//  * Checkpoint/resume: every job auto-rotates ck_<step>.bin files into
//    its own directory rootDir/job_<id>_<spechash>/, each stamped with the
//    job's spec hash. A job that throws mid-run (rank kill, divergence) is
//    retired as Checkpointed when its rotation still holds a restorable
//    file with the right hash, else Failed; resumeJob() requeues it and
//    the next run() continues from the newest valid checkpoint. Resuming
//    from another job's directory is a typed error (kSpecMismatch), not a
//    wrong-physics run.
//  * Failure isolation: runJob catches everything a job can throw
//    (RankKilled at collective boundaries, typed checkpoint errors, solver
//    divergence checks), records it on the JobRecord, and returns — the
//    TaskQueue keeps draining the remaining jobs.
//  * Observability: the job's entire execution runs under an
//    obs::JobTagScope, so every span it opens (step/solve/matvec/remesh/
//    checkpoint) carries args.job in the Chrome trace and
//    tools/trace_summary.py reports a per-job span table. Per-job metrics
//    are each solver's own Registry, snapshotted into JobRecord.counters
//    at retirement. Residual process-global aggregates (the tracer's
//    rings) are documented in DESIGN.md §14 — they meter the process,
//    not a job.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chns/checkpoint.hpp"
#include "farm/scenario.hpp"
#include "obs/trace.hpp"
#include "support/thread_pool.hpp"

namespace pt::farm {

/// Job lifecycle. Queued -> Running -> one of Done / Checkpointed /
/// Failed; Checkpointed -> Queued again via resumeJob().
enum class JobState { kQueued, kRunning, kCheckpointed, kDone, kFailed };

inline const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCheckpointed: return "checkpointed";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

/// Everything the farm knows about one job. Stable storage: records are
/// never reallocated once added, and after run() returns they are plain
/// read-only data.
struct JobRecord {
  ScenarioSpec spec;
  JobState state = JobState::kQueued;
  std::string ckDir;          ///< job-scoped checkpoint rotation directory
  int stepsDone = 0;          ///< solver step counter at retirement
  int attempts = 0;           ///< run attempts (resume increments)
  long resumedFromStep = -1;  ///< checkpoint step of the last resume
  bool usedSharedInit = false;  ///< initial state came from the cache
  std::string error;            ///< what() of the retiring exception
  /// history[k] = left-to-right phi fingerprint after step k+1 — the
  /// bitwise equivalence witness of the farm tests/bench.
  std::vector<Real> history;
  /// Snapshot of the job's per-solver metric counters at retirement
  /// (job-tagged metrics: each solver owns its Registry).
  std::map<std::string, long long> counters;
  double wallSec = 0;  ///< wall time of the last attempt
};

/// Shared read-only initial-state cache: initStateHash -> immutable
/// checkpoint of the adapted initial solver state. Entries are published
/// once and never mutated; concurrent readers take shared_ptr copies under
/// a short lock (the tsan-checked read-only contract of the farm tests).
class InitStateCache {
 public:
  std::shared_ptr<const io::Checkpoint<2>> find(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return it->second;
  }

  /// Publishes an entry; the first writer wins and the canonical entry is
  /// returned (losers' duplicates are discarded — both are bitwise equal
  /// by construction, so which survives is unobservable).
  std::shared_ptr<const io::Checkpoint<2>> insert(
      std::uint64_t key, std::shared_ptr<const io::Checkpoint<2>> ck) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, fresh] = map_.emplace(key, std::move(ck));
    return it->second;
  }

  long hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  long misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<const io::Checkpoint<2>>> map_;
  long hits_ = 0;
  long misses_ = 0;
};

/// Left-to-right sum of every entry — deterministic bitwise fingerprint
/// (same reduction the fig5/fig9 benches use).
inline Real fieldFingerprint(const Field& f, int nRanks) {
  Real s = 0;
  for (int r = 0; r < nRanks; ++r)
    for (Real v : f[r]) s += v;
  return s;
}

class ScenarioFarm {
 public:
  struct Options {
    std::string rootDir = "farm_ck";  ///< checkpoint root; one subdir/job
    int ckEvery = 2;                  ///< auto-checkpoint cadence (steps)
    int ckKeep = 2;                   ///< rotation depth per job
    bool shareInitState = true;       ///< use the InitStateCache
    bool recordHistory = true;        ///< per-step phi fingerprints

    // Fault-injection / test hooks. Deliberately NOT part of scenario
    // identity (a killed job resumes under the same spec hash). Both may
    // be called concurrently from different jobs — hook bodies must be
    // thread-safe.
    /// Called with (jobId, comm) right after a job's SimComm is built —
    /// the seam for sim::SimComm::scheduleRankFailure (PR-4 fault model).
    std::function<void(int, sim::SimComm&)> commHook;
    /// Called with (jobId, solver) after each completed step, after the
    /// farm's own history/checkpoint bookkeeping. Throwing here simulates
    /// preemption at a step boundary.
    std::function<void(int, chns::ChnsSolver<2>&)> postStepHook;
  };

  ScenarioFarm() = default;
  explicit ScenarioFarm(Options opt) : opt_(std::move(opt)) {}

  /// Registers a scenario; returns its job id. Not thread-safe against a
  /// concurrent run() (add jobs between drains, or from inside a task via
  /// the TaskQueue's re-entrant submit by calling this then run() again).
  int addJob(ScenarioSpec spec) {
    std::lock_guard<std::mutex> lock(mu_);
    const int id = static_cast<int>(jobs_.size());
    auto rec = std::make_unique<JobRecord>();
    rec->spec = std::move(spec);
    rec->ckDir = jobDir(id, rec->spec);
    jobs_.push_back(std::move(rec));
    queue_.push_back(id);
    return id;
  }

  /// Drains every queued job to retirement (Done / Checkpointed / Failed).
  /// Jobs run concurrently across the pool's participants; with a serial
  /// pool they run sequentially on the caller. Reentrant-safe with respect
  /// to job failures: a throwing job never takes the farm down.
  void run() {
    support::TaskQueue q(support::ThreadPool::instance());
    std::vector<int> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch.swap(queue_);
    }
    for (int id : batch) q.submit([this, id] { runJob(id); });
    q.run();
  }

  /// Requeues a Checkpointed job for resume on the next run(). Returns the
  /// job id; PT_CHECKs that the job is actually resumable.
  int resumeJob(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    JobRecord& rec = *jobs_.at(id);
    PT_CHECK(rec.state == JobState::kCheckpointed &&
             "resumeJob: job is not in the checkpointed state");
    rec.state = JobState::kQueued;
    queue_.push_back(id);
    return id;
  }

  /// Read access to a job record. Safe concurrently with run() only for
  /// ids not currently executing; meant for post-run inspection.
  const JobRecord& job(int id) const { return *jobs_.at(id); }
  int jobCount() const { return static_cast<int>(jobs_.size()); }

  int countState(JobState s) const {
    std::lock_guard<std::mutex> lock(mu_);
    int n = 0;
    for (const auto& rec : jobs_)
      if (rec->state == s) ++n;
    return n;
  }

  long initCacheHits() const { return cache_.hits(); }
  long initCacheMisses() const { return cache_.misses(); }

 private:
  std::string jobDir(int id, const ScenarioSpec& spec) const {
    char buf[64];
    std::snprintf(buf, sizeof buf, "/job_%03d_%016llx", id,
                  static_cast<unsigned long long>(specHash(spec)));
    return opt_.rootDir + buf;
  }

  /// Initial solver state, through the shared cache when enabled. The
  /// restore path is bitwise identical to the fresh build (asserted by
  /// tests/test_farm.cpp), so cache hits change wall time only.
  chns::ChnsSolver<2> buildInitial(sim::SimComm& comm,
                                   const ScenarioSpec& spec, int id) {
    if (!opt_.shareInitState) return buildScenario(comm, spec);
    const std::uint64_t key = initStateHash(spec);
    if (auto ck = cache_.find(key)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        jobs_[id]->usedSharedInit = true;
      }
      return chns::restoreSolverState<2>(comm, *ck, toOptions(spec));
    }
    chns::ChnsSolver<2> solver = buildScenario(comm, spec);
    cache_.insert(key, std::make_shared<io::Checkpoint<2>>(
                           chns::makeSolverCheckpoint(solver)));
    return solver;
  }

  /// True when `dir` holds at least one structurally valid checkpoint
  /// carrying this job's spec hash — the Checkpointed-vs-Failed decision.
  static bool hasRestorableCheckpoint(const std::string& dir,
                                      std::uint64_t hash) {
    auto files = chns::listCheckpoints(dir);
    for (auto it = files.rbegin(); it != files.rend(); ++it) {
      auto lr = io::tryLoadCheckpointFile<2>(it->second);
      if (!lr.status.ok()) continue;
      if (!chns::solverStateSchema<2>(lr.ck).ok()) continue;
      if (chns::checkpointSpecHash(lr.ck) != hash) continue;
      return true;
    }
    return false;
  }

  void runJob(int id) {
    ScenarioSpec spec;
    std::string ckDir;
    bool resume;
    {
      std::lock_guard<std::mutex> lock(mu_);
      JobRecord& rec = *jobs_[id];
      spec = rec.spec;
      ckDir = rec.ckDir;
      resume = rec.attempts > 0;
      rec.state = JobState::kRunning;
      ++rec.attempts;
    }
    const std::uint64_t hash = specHash(spec);
    obs::JobTagScope tag(id);
    PT_SPAN("farm.job");
    const auto t0 = std::chrono::steady_clock::now();
    const auto elapsed = [t0] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    try {
      sim::SimComm comm(spec.ranks, sim::Machine::loopback());
      if (opt_.commHook) opt_.commHook(id, comm);
      chns::ChnsSolver<2> solver = [&]() -> chns::ChnsSolver<2> {
        if (resume) {
          chns::ResumeInfo info;
          auto s = chns::resumeFromLatestValid<2>(comm, ckDir, toOptions(spec),
                                                  &info, hash);
          std::lock_guard<std::mutex> lock(mu_);
          jobs_[id]->resumedFromStep = info.step;
          return s;
        }
        return buildInitial(comm, spec, id);
      }();
      std::filesystem::create_directories(ckDir);
      {
        // Pre-size the history so the per-step hook stays allocation-free
        // (the zero-steady-state-allocation claim of fig9).
        std::lock_guard<std::mutex> lock(mu_);
        jobs_[id]->history.reserve(std::size_t(spec.steps));
      }
      solver.setPostStepHook(
          [this, id, ckDir, hash](chns::ChnsSolver<2>& s) {
            if (opt_.recordHistory) {
              const Real fp = fieldFingerprint(s.phi(), s.mesh().nRanks());
              std::lock_guard<std::mutex> lock(mu_);
              auto& h = jobs_[id]->history;
              if (h.size() < std::size_t(s.stepsTaken()))
                h.resize(s.stepsTaken());
              h[s.stepsTaken() - 1] = fp;
            }
            if (s.stepsTaken() % opt_.ckEvery == 0) {
              chns::saveSolverState(
                  ckDir + "/" + chns::checkpointFileName(s.stepsTaken()), s,
                  hash);
              chns::pruneCheckpoints(ckDir, opt_.ckKeep);
            }
            if (opt_.postStepHook) opt_.postStepHook(id, s);
          },
          /*every=*/1);
      while (solver.stepsTaken() < spec.steps) solver.step();
      auto counters = solver.telemetry().metrics.counters();
      std::lock_guard<std::mutex> lock(mu_);
      JobRecord& rec = *jobs_[id];
      rec.stepsDone = solver.stepsTaken();
      for (const auto& [k, v] : counters) rec.counters[k] = v.value;
      rec.state = JobState::kDone;
      rec.wallSec = elapsed();
    } catch (const std::exception& e) {
      const bool resumable = hasRestorableCheckpoint(ckDir, hash);
      std::lock_guard<std::mutex> lock(mu_);
      JobRecord& rec = *jobs_[id];
      rec.error = e.what();
      rec.state =
          resumable ? JobState::kCheckpointed : JobState::kFailed;
      rec.wallSec = elapsed();
    }
  }

  Options opt_;
  mutable std::mutex mu_;  ///< guards jobs_ records and queue_
  std::vector<std::unique_ptr<JobRecord>> jobs_;
  std::vector<int> queue_;
  InitStateCache cache_;
};

}  // namespace pt::farm
