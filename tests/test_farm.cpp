// Scenario-farm serving layer (DESIGN.md §14) + the shared-state fixes
// that make it safe:
//
//  * ThreadPool regression: concurrent parallelFor from two non-worker
//    threads falls back inline (identical results, no corrupted job slot —
//    this used to be a debug-only assert and release-mode corruption), and
//    the TaskQueue work-stealing mode runs every task exactly once,
//    supports re-entrant submission, steals across participants, and
//    propagates task exceptions after draining.
//  * Farm equivalence: an N-job farm on a threaded pool produces per-job
//    step histories bitwise identical to the same scenarios run
//    sequentially on a serial pool (jobs execute inside participants, so
//    their nested parallelFor calls run inline).
//  * Shared init-state cache: jobs with identical physics/mesh config
//    share one adapted initial state; the restore path is bitwise
//    identical to the fresh build. Concurrent identical jobs exercise the
//    read-only contract under tsan.
//  * Kill-and-resume: a job killed at a collective boundary mid-farm
//    (sim::SimComm::scheduleRankFailure) retires as Checkpointed, resumes
//    from its own newest valid checkpoint, and completes with the
//    uninterrupted history.
//  * Cross-scenario resume is a typed error: a rotation stamped with a
//    different (or no) spec hash fails with CheckpointError(kSpecMismatch)
//    instead of silently continuing different physics.
//  * Failure isolation: a job that dies without a restorable checkpoint is
//    retired as Failed; the rest of the farm drains to Done.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "farm/farm.hpp"

using namespace pt;

namespace {

struct ThreadGuard {
  explicit ThreadGuard(int n) {
    support::ThreadPool::instance().setThreads(n);
  }
  ~ThreadGuard() { support::ThreadPool::instance().setThreads(1); }
};

/// A deliberately small rising-drop scenario (seed level 3, interface
/// level 4, 2 simulated ranks) so a multi-job farm stays test-sized.
farm::ScenarioSpec smallSpec(std::string name) {
  farm::ScenarioSpec s;
  s.name = std::move(name);
  s.Cn = 0.06;
  s.dropR = 0.2;
  s.seedLevel = 3;
  s.coarseLevel = 2;
  s.interfaceLevel = 4;
  s.remeshEvery = 2;
  s.steps = 3;
  s.ranks = 2;
  return s;
}

std::string freshDir(const std::string& name) {
  const std::string dir = "test_farm_out/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Sequential reference: the scenario run directly on the current pool
/// (callers use ThreadGuard(1) for the serial baseline), recording the
/// same per-step phi fingerprints the farm records.
std::vector<Real> sequentialHistory(const farm::ScenarioSpec& spec) {
  sim::SimComm comm(spec.ranks, sim::Machine::loopback());
  chns::ChnsSolver<2> solver = farm::buildScenario(comm, spec);
  std::vector<Real> hist;
  while (solver.stepsTaken() < spec.steps) {
    solver.step();
    hist.push_back(farm::fieldFingerprint(solver.phi(), solver.mesh().nRanks()));
  }
  return hist;
}

// ---------------------------------------------------------------------------
// ThreadPool: concurrent coordinators + task queue
// ---------------------------------------------------------------------------

TEST(FarmThreadPool, ConcurrentParallelForFallsBackInline) {
  ThreadGuard guard(4);
  auto& pool = support::ThreadPool::instance();
  constexpr std::size_t kN = 1 << 14;
  // Integer-valued doubles: any summation order is exact, so the inline
  // fallback and the 4-part run must agree bitwise.
  auto runSum = [&pool] {
    double partials[64] = {};
    pool.parallelFor(kN, [&](int part, std::size_t b, std::size_t e) {
      double s = 0;
      for (std::size_t i = b; i < e; ++i) s += double(i % 97);
      partials[part] += s;
    });
    double total = 0;
    for (double p : partials) total += p;
    return total;
  };
  const double expect = runSum();  // single-coordinator reference
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t)
    threads.emplace_back([&] {
      for (int it = 0; it < 50; ++it)
        if (runSum() != expect) bad.fetch_add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(FarmThreadPool, TaskQueueRunsEveryTaskOnceWithReentrantSubmit) {
  ThreadGuard guard(4);
  support::TaskQueue q(support::ThreadPool::instance());
  constexpr int kTasks = 64;
  std::atomic<int> ran[kTasks] = {};
  std::atomic<int> children{0};
  for (int i = 0; i < kTasks; ++i)
    q.submit([&, i] {
      ran[i].fetch_add(1);
      if (i % 8 == 0)  // re-entrant submission from inside a task
        q.submit([&] { children.fetch_add(1); });
    });
  q.run();
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(ran[i].load(), 1) << i;
  EXPECT_EQ(children.load(), kTasks / 8);
}

TEST(FarmThreadPool, TaskQueueStealsFromBusyParticipants) {
  ThreadGuard guard(2);
  auto& pool = support::ThreadPool::instance();
  support::TaskQueue q(pool);
  // Round-robin dealing puts tasks 0,2 on participant 0 and 1,3 on 1.
  // Task 0 blocks until task 2 runs — which can only happen if another
  // participant steals it from queue 0's back while 0 is blocked.
  std::atomic<bool> unblocked{false};
  std::atomic<bool> timedOut{false};
  q.submit([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!unblocked.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        timedOut.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  q.submit([] {});
  q.submit([&] { unblocked.store(true); });
  q.submit([] {});
  q.run();
  EXPECT_FALSE(timedOut.load()) << "task 2 was never stolen";
}

TEST(FarmThreadPool, TaskQueueDrainsRemainingTasksThenRethrows) {
  ThreadGuard guard(2);
  support::TaskQueue q(support::ThreadPool::instance());
  std::atomic<int> ran{0};
  q.submit([&] { ran.fetch_add(1); });
  q.submit([] { throw std::runtime_error("task boom"); });
  q.submit([&] { ran.fetch_add(1); });
  EXPECT_THROW(q.run(), std::runtime_error);
  EXPECT_EQ(ran.load(), 2);
}

TEST(FarmThreadPool, NestedParallelForInsideTaskRunsInline) {
  ThreadGuard guard(4);
  auto& pool = support::ThreadPool::instance();
  support::TaskQueue q(pool);
  std::atomic<int> maxPart{-1};
  std::atomic<int> calls{0};
  for (int t = 0; t < 8; ++t)
    q.submit([&] {
      pool.parallelFor(1000, [&](int part, std::size_t, std::size_t) {
        calls.fetch_add(1);
        int seen = maxPart.load();
        while (part > seen && !maxPart.compare_exchange_weak(seen, part)) {
        }
      });
    });
  q.run();
  // Every nested call ran as a single inline partition (part 0 only).
  EXPECT_EQ(maxPart.load(), 0);
  EXPECT_EQ(calls.load(), 8);
}

// ---------------------------------------------------------------------------
// Spec hashing
// ---------------------------------------------------------------------------

TEST(FarmSpec, HashesSeparateScenarioAndInitIdentity) {
  const farm::ScenarioSpec a = smallSpec("a");
  farm::ScenarioSpec b = smallSpec("b");
  EXPECT_NE(farm::specHash(a), 0u);
  EXPECT_NE(farm::initStateHash(a), 0u);
  // Same physics, different name: same shared-cache key, different
  // scenario identity (checkpoints must not cross).
  EXPECT_EQ(farm::initStateHash(a), farm::initStateHash(b));
  EXPECT_NE(farm::specHash(a), farm::specHash(b));
  // Different physics: both identities change.
  b.Cn = 0.05;
  EXPECT_NE(farm::initStateHash(a), farm::initStateHash(b));
  // Campaign length is not identity: a resumed job may extend its budget.
  farm::ScenarioSpec c = smallSpec("a");
  c.steps += 10;
  EXPECT_EQ(farm::specHash(a), farm::specHash(c));
}

// ---------------------------------------------------------------------------
// Farm equivalence and shared caches
// ---------------------------------------------------------------------------

TEST(Farm, ConcurrentJobsMatchSequentialBitwise) {
  std::vector<farm::ScenarioSpec> specs;
  specs.push_back(smallSpec("base"));
  specs.push_back(smallSpec("thin"));
  specs.back().Cn = 0.05;
  specs.push_back(smallSpec("heavy"));
  specs.back().rhoMinus = 0.2;
  specs.push_back(smallSpec("viscous"));
  specs.back().etaMinus = 0.3;

  std::vector<std::vector<Real>> expect;
  {
    ThreadGuard serial(1);
    for (const auto& s : specs) expect.push_back(sequentialHistory(s));
  }

  ThreadGuard guard(4);
  farm::ScenarioFarm::Options opt;
  opt.rootDir = freshDir("equiv");
  farm::ScenarioFarm f(opt);
  std::vector<int> ids;
  for (const auto& s : specs) ids.push_back(f.addJob(s));
  f.run();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const farm::JobRecord& rec = f.job(ids[i]);
    EXPECT_EQ(rec.state, farm::JobState::kDone) << rec.error;
    EXPECT_EQ(rec.stepsDone, specs[i].steps);
    ASSERT_EQ(rec.history.size(), expect[i].size());
    for (std::size_t k = 0; k < expect[i].size(); ++k)
      EXPECT_EQ(rec.history[k], expect[i][k])
          << specs[i].name << " step " << k + 1;
    // Job-tagged metrics: each job retired with its own solver counters.
    EXPECT_FALSE(rec.counters.empty());
  }
}

TEST(Farm, SharedInitStateIsBitwiseAndHitsSequentially) {
  // Serial pool: jobs run in submission order, so the first job builds
  // the initial state and the other two must hit the cache.
  const farm::ScenarioSpec base = smallSpec("r0");
  std::vector<Real> expect;
  {
    ThreadGuard serial(1);
    expect = sequentialHistory(base);  // fresh build, no cache
  }
  ThreadGuard serial(1);
  farm::ScenarioFarm::Options opt;
  opt.rootDir = freshDir("cache_seq");
  farm::ScenarioFarm f(opt);
  std::vector<int> ids;
  for (const char* n : {"r0", "r1", "r2"}) {
    farm::ScenarioSpec s = base;
    s.name = n;
    ids.push_back(f.addJob(s));
  }
  f.run();
  EXPECT_EQ(f.initCacheMisses(), 1);
  EXPECT_EQ(f.initCacheHits(), 2);
  EXPECT_FALSE(f.job(ids[0]).usedSharedInit);
  EXPECT_TRUE(f.job(ids[1]).usedSharedInit);
  EXPECT_TRUE(f.job(ids[2]).usedSharedInit);
  for (int id : ids) {
    const farm::JobRecord& rec = f.job(id);
    ASSERT_EQ(rec.state, farm::JobState::kDone) << rec.error;
    ASSERT_EQ(rec.history.size(), expect.size());
    // Restored-from-cache initial state is bitwise the fresh build.
    for (std::size_t k = 0; k < expect.size(); ++k)
      EXPECT_EQ(rec.history[k], expect[k]) << "job " << id << " step " << k;
  }
}

TEST(Farm, SharedInitStateReadOnlyUnderConcurrency) {
  // Four identical-physics jobs racing on a 4-thread pool: the cache's
  // first-writer-wins publish and concurrent shared reads are the tsan
  // target; results must be identical regardless of who built the entry.
  const farm::ScenarioSpec base = smallSpec("c0");
  std::vector<Real> expect;
  {
    ThreadGuard serial(1);
    expect = sequentialHistory(base);
  }
  ThreadGuard guard(4);
  farm::ScenarioFarm::Options opt;
  opt.rootDir = freshDir("cache_race");
  farm::ScenarioFarm f(opt);
  std::vector<int> ids;
  for (const char* n : {"c0", "c1", "c2", "c3"}) {
    farm::ScenarioSpec s = base;
    s.name = n;
    ids.push_back(f.addJob(s));
  }
  f.run();
  EXPECT_EQ(f.initCacheHits() + f.initCacheMisses(), 4);
  EXPECT_GE(f.initCacheMisses(), 1);
  for (int id : ids) {
    const farm::JobRecord& rec = f.job(id);
    ASSERT_EQ(rec.state, farm::JobState::kDone) << rec.error;
    ASSERT_EQ(rec.history.size(), expect.size());
    for (std::size_t k = 0; k < expect.size(); ++k)
      EXPECT_EQ(rec.history[k], expect[k]) << "job " << id << " step " << k;
  }
}

// ---------------------------------------------------------------------------
// Kill, resume, isolation, cross-scenario guard
// ---------------------------------------------------------------------------

TEST(Farm, KilledJobResumesFromOwnCheckpointBitwise) {
  farm::ScenarioSpec spec = smallSpec("kill");
  spec.steps = 4;
  std::vector<Real> expect;
  {
    ThreadGuard serial(1);
    expect = sequentialHistory(spec);
  }

  ThreadGuard guard(4);
  farm::ScenarioFarm::Options opt;
  opt.rootDir = freshDir("resume");
  opt.ckEvery = 1;
  // PR-4 fault model: after step 2 of the first attempt, schedule a
  // one-shot rank kill at the next collective — step 3 dies mid-flight,
  // after ck_2 hit the rotation.
  std::atomic<sim::SimComm*> jobComm{nullptr};
  opt.commHook = [&](int, sim::SimComm& comm) { jobComm.store(&comm); };
  opt.postStepHook = [&](int, chns::ChnsSolver<2>& s) {
    if (s.stepsTaken() == 2)
      if (sim::SimComm* comm = jobComm.exchange(nullptr))
        comm->scheduleRankFailure(1, 0);
  };
  farm::ScenarioFarm f(opt);
  const int id = f.addJob(spec);
  f.run();

  const farm::JobRecord* rec = &f.job(id);
  ASSERT_EQ(rec->state, farm::JobState::kCheckpointed) << rec->error;
  EXPECT_FALSE(rec->error.empty());
  EXPECT_FALSE(chns::listCheckpoints(rec->ckDir).empty());

  f.resumeJob(id);
  f.run();
  rec = &f.job(id);
  ASSERT_EQ(rec->state, farm::JobState::kDone) << rec->error;
  EXPECT_EQ(rec->attempts, 2);
  EXPECT_EQ(rec->resumedFromStep, 2);
  EXPECT_EQ(rec->stepsDone, spec.steps);
  ASSERT_EQ(rec->history.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k)
    EXPECT_EQ(rec->history[k], expect[k]) << "step " << k + 1;
}

TEST(Farm, FailedJobIsIsolatedAndFarmDrains) {
  ThreadGuard guard(4);
  farm::ScenarioFarm::Options opt;
  opt.rootDir = freshDir("isolate");
  opt.ckEvery = 100;  // victim dies before any checkpoint exists
  opt.commHook = [](int id, sim::SimComm& comm) {
    if (id == 1) comm.scheduleRankFailure(1, 3);
  };
  farm::ScenarioFarm f(opt);
  std::vector<int> ids;
  for (const char* n : {"ok0", "victim", "ok1"}) {
    farm::ScenarioSpec s = smallSpec(n);
    s.steps = 2;
    ids.push_back(f.addJob(s));
  }
  f.run();
  EXPECT_EQ(f.job(ids[1]).state, farm::JobState::kFailed);
  EXPECT_FALSE(f.job(ids[1]).error.empty());
  for (int id : {ids[0], ids[2]}) {
    EXPECT_EQ(f.job(id).state, farm::JobState::kDone) << f.job(id).error;
    EXPECT_EQ(f.job(id).stepsDone, 2);
  }
  EXPECT_EQ(f.countState(farm::JobState::kDone), 2);
  EXPECT_EQ(f.countState(farm::JobState::kFailed), 1);
}

TEST(Farm, CrossScenarioResumeIsTypedError) {
  ThreadGuard serial(1);
  farm::ScenarioFarm::Options opt;
  opt.rootDir = freshDir("cross");
  opt.ckEvery = 1;
  opt.ckKeep = 2;
  farm::ScenarioFarm f(opt);
  farm::ScenarioSpec a = smallSpec("jobA");
  a.steps = 2;
  farm::ScenarioSpec b = smallSpec("jobB");
  b.steps = 2;
  b.Cn = 0.05;
  const int ia = f.addJob(a), ib = f.addJob(b);
  f.run();
  ASSERT_EQ(f.job(ia).state, farm::JobState::kDone);
  ASSERT_EQ(f.job(ib).state, farm::JobState::kDone);

  sim::SimComm comm(a.ranks, sim::Machine::loopback());
  // Resuming scenario B out of scenario A's rotation is a typed error...
  try {
    chns::resumeFromLatestValid<2>(comm, f.job(ia).ckDir, farm::toOptions(b),
                                   nullptr, farm::specHash(b));
    FAIL() << "cross-scenario resume must throw";
  } catch (const io::CheckpointError& e) {
    EXPECT_EQ(e.code(), io::CkCode::kSpecMismatch);
  }
  // ...and so is an unstamped rotation when a hash is expected.
  const std::string plainDir = freshDir("cross_plain");
  std::filesystem::create_directories(plainDir);
  {
    chns::ChnsSolver<2> solver = farm::buildScenario(comm, a);
    chns::saveSolverState(plainDir + "/" + chns::checkpointFileName(0),
                          solver);  // no spec hash
  }
  try {
    chns::resumeFromLatestValid<2>(comm, plainDir, farm::toOptions(a),
                                   nullptr, farm::specHash(a));
    FAIL() << "unstamped rotation must not satisfy a hash expectation";
  } catch (const io::CheckpointError& e) {
    EXPECT_EQ(e.code(), io::CkCode::kSpecMismatch);
  }
  // The same rotation resumes fine under its own identity (and with the
  // guard disarmed for legacy single-tenant callers).
  chns::ResumeInfo info;
  chns::ChnsSolver<2> resumed = chns::resumeFromLatestValid<2>(
      comm, f.job(ia).ckDir, farm::toOptions(a), &info, farm::specHash(a));
  EXPECT_EQ(resumed.stepsTaken(), info.step);
  chns::resumeFromLatestValid<2>(comm, f.job(ia).ckDir, farm::toOptions(a));
}

}  // namespace
