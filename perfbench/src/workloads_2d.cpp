// bubble-2d (solver-bound) and farm-sweep (campaign) workloads.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>

#include "apps/fields.hpp"
#include "chns/checkpoint.hpp"
#include "farm/farm.hpp"
#include "solver_loop.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pt;

// ---- bubble-2d --------------------------------------------------------------

namespace {

/// Relative drift of the phi integral over a run that the check accepts.
/// Cahn-Hilliard conserves it; the remesh transfer is interpolation, so
/// each remesh may move it by round-off-scale amounts.
constexpr double kPhiDriftTol = 1e-4;

/// Largest seeded perturbation of a bubble or drop position. The CH Newton
/// counts of the first steps are very sensitive to where the interface
/// sits on the mesh: probes of bubble-2d over five seeds measured 8.9 to
/// 14.5 Newton iterations per step with a +-4e-3 jitter and 11.6 to 14.1
/// with +-5e-4, but 16.25 on every seed with +-1e-7. A seed must not
/// change the workload's cost, so the jitter stays far below the mesh.
constexpr Real kJitter = 1e-6;

/// The physics of examples/rising_bubble.cpp.
chns::ChnsOptions<2> bubbleOptions() {
  chns::ChnsOptions<2> opt;
  opt.params.Re = 35;
  opt.params.We = 10;
  opt.params.Pe = 100;
  opt.params.Cn = 0.03;
  opt.params.rhoMinus = 0.1;
  opt.params.etaMinus = 0.1;
  opt.params.Fr = 0.4;
  opt.params.gravityDir = 1;
  opt.dt = 2e-3;
  opt.remeshEvery = 4;
  opt.coarseLevel = 3;
  opt.interfaceLevel = 6;
  opt.featureLevel = 6;
  opt.referenceLevel = 6;
  opt.identify.cnCoarse = opt.params.Cn;
  opt.identify.cnFine = opt.params.Cn / 2;
  return opt;
}

/// Height of the bubble's (phi = -1 phase) centroid.
Real bubbleCentroidY(chns::ChnsSolver<2>& s) {
  const Mesh<2>& mesh = s.mesh();
  Field ind = mesh.makeField(1), Mi = mesh.makeField(1);
  for (int r = 0; r < mesh.nRanks(); ++r)
    for (std::size_t li = 0; li < mesh.rank(r).nNodes(); ++li)
      ind[r][li] = 0.5 * (1.0 - s.phi()[r][li]);
  fem::massMatvec(mesh, ind, Mi);
  Real num = 0, den = 0;
  for (int r = 0; r < mesh.nRanks(); ++r) {
    const auto& rm = mesh.rank(r);
    for (std::size_t li = 0; li < rm.nNodes(); ++li) {
      if (rm.nodeOwner[li] != r) continue;
      num += nodeCoords(rm.nodeKeys[li])[1] * Mi[r][li];
      den += Mi[r][li];
    }
  }
  return num / den;
}

}  // namespace

RunResult runBubble2d(const RunOptions& o) {
  // The seed jitters the bubble's start by up to kJitter in each direction:
  // enough to change every field bit, too little to change the iteration
  // regime (see kJitter).
  Rng rng(o.seed);
  const Real cx = 0.5 + rng.uniform(-kJitter, kJitter);
  const Real cy = 0.3 + rng.uniform(-kJitter, kJitter);
  const chns::ChnsOptions<2> opt = bubbleOptions();
  Real phiInt0 = 0, centroid0 = 0;
  double maxDrift = 0;
  std::shared_ptr<const io::Checkpoint<2>> start;

  SolverWorkload<2> w;
  w.setupReps = 5;
  w.minOps = 48;
  w.exactOps = 8;
  w.speedupOps = 4;
  // Step cost swings between about 0.35 and 1 s over the first 40 steps as
  // the interface relaxes, so episodes restart from the set-up state and
  // every run times the same mix of steps. In 24 steps, 14 sit in the
  // dense upper cluster, which keeps the median off a gap between modes.
  // Traced runs alternate whole episodes, so traced and untraced ops are
  // the same steps and their difference is the tracing overhead alone.
  w.episodeOps = 24;
  w.traceBlock = 24;
  w.opSpan = "ChnsSolver::step";
  w.coveragePhases = {"ch-solve", "ns-solve", "pp-solve", "vu-solve",
                      "remesh"};
  w.setup = [&] {
    SolverRun<2> run;
    run.comm = std::make_unique<sim::SimComm>(4, sim::Machine::loopback());
    auto tree = DistTree<2>::fromGlobal(*run.comm, uniformTree<2>(5));
    run.solver =
        std::make_unique<chns::ChnsSolver<2>>(*run.comm, std::move(tree), opt);
    const auto ic = [&](const VecN<2>& x) {
      return apps::dropPhi<2>(x, VecN<2>{{cx, cy}}, 0.15, opt.params.Cn);
    };
    // Adapt to the interface, then impose the profile on the adapted mesh.
    run.solver->setInitialCondition(ic);
    run.solver->remeshNow();
    run.solver->setInitialCondition(ic);
    phiInt0 = run.solver->phiIntegral();
    centroid0 = bubbleCentroidY(*run.solver);
    run.solver->step();  // the first, cold step belongs to set-up
    start = std::make_shared<io::Checkpoint<2>>(
        chns::makeSolverCheckpoint(*run.solver));
    return run;
  };
  w.restart = [&](SolverRun<2>& run) {
    run.solver = std::make_unique<chns::ChnsSolver<2>>(
        chns::restoreSolverState<2>(*run.comm, *start, opt));
  };
  w.op = [](SolverRun<2>& run, long) { run.solver->step(); };
  w.episodeChecks = [&](SolverRun<2>& run, RunResult& res) {
    const double drift =
        std::abs(run.solver->phiIntegral() - phiInt0) / std::abs(phiInt0);
    const double rise = bubbleCentroidY(*run.solver) - centroid0;
    maxDrift = std::max(maxDrift, drift);
    if (drift <= kPhiDriftTol && rise > 0) return;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "after step %d: phi integral drift %.3e (tol %.0e), "
                  "centroid rise %.4e (must be > 0)",
                  run.solver->stepsTaken(), drift, kPhiDriftTol, rise);
    res.fail(buf);
  };
  RunResult res = runSolverWorkload(o, w);
  char buf[96];
  std::snprintf(buf, sizeof buf, "largest phi integral drift %.3e (tol %.0e)",
                maxDrift, kPhiDriftTol);
  res.notes.push_back(buf);
  return res;
}

// ---- farm-sweep -------------------------------------------------------------

namespace {

constexpr int kFarmThreads = 4;
constexpr int kFarmPoints = 20;  ///< physics points per batch, two jobs each
/// Four batches. Job lengths are 4 to 8 steps, a fifth each, so the tail
/// (p90) sits mid-way through the 8-step jobs; 160 jobs put 16 beyond it.
constexpr int kFarmMinJobs = 160;

/// One batch of the campaign: 20 physics points, each submitted twice.
/// Point k has (Cn, density ratio) combination k % 4, 4 + k % 5 steps and
/// radius 0.12 + 0.002 k, so every batch holds the same 20 jobs' worth of
/// work. The seed draws each radius's kJitter perturbation (which also
/// makes every batch's points new to the init-state cache) and the
/// submission order. First replicas go first, second replicas after them
/// in the same order, so most second replicas find the init state their
/// twin published.
std::vector<farm::ScenarioSpec> drawBatch(Rng& rng, int batch) {
  std::vector<farm::ScenarioSpec> points;
  for (int k = 0; k < kFarmPoints; ++k) {
    farm::ScenarioSpec s;
    s.Cn = (k % 2) ? 0.06 : 0.05;
    s.rhoMinus = ((k / 2) % 2) ? 0.2 : 0.1;
    s.dropR = 0.12 + 0.002 * k + rng.uniform(-kJitter, kJitter);
    s.seedLevel = 3;
    s.coarseLevel = 2;
    s.interfaceLevel = 5;
    s.remeshEvery = 2;
    s.ranks = 2;
    s.steps = 4 + k % 5;
    s.name = "b" + std::to_string(batch) + "p" + std::to_string(k);
    points.push_back(s);
  }
  rng.shuffle(points);
  std::vector<farm::ScenarioSpec> jobs;
  for (int rep = 0; rep < 2; ++rep)
    for (auto s : points) {
      s.name += rep ? "b" : "a";
      jobs.push_back(s);
    }
  return jobs;
}

/// What the farm's hooks record for one job.
struct JobProbe {
  std::int64_t startNs = 0;  ///< when the job's communicator was built
  const sim::SimComm* comm = nullptr;
  int steps = 0;
  bool sampled = false;
  LayerSample final;  ///< solver counters at retirement (traced batches)
  std::string bad;    ///< first failed check
};

/// A physics point's name: its jobs' names without the replica letter.
std::string pointName(const farm::ScenarioSpec& s) {
  return s.name.substr(0, s.name.size() - 1);
}

/// Initial-state counters of a freshly built and of a cache-restored
/// solver for one spec: what a job did before its first step.
struct InitReplay {
  LayerSample built, restored;
};

}  // namespace

RunResult runFarmSweep(const RunOptions& o) {
  using support::ThreadPool;
  namespace fs = std::filesystem;
  RunResult res;
  res.threads = kFarmThreads;
  res.minOps = kFarmMinJobs;
  setTracing(o.trace);
  Rng rng(o.seed);
  const std::string root = o.outDir + "/farm_ck";

  std::mutex mu;  // guards probes and sample
  std::map<int, JobProbe> probes;  // by job id in the current batch's farm
  bool sample = false;
  int jobDepth = 0;  // farm.job spans nest under ScenarioFarm::run

  farm::ScenarioFarm::Options fo;
  fo.rootDir = root;
  fo.ckEvery = 2;
  fo.ckKeep = 2;
  fo.commHook = [&](int id, sim::SimComm& comm) {
    std::lock_guard<std::mutex> lock(mu);
    probes[id].startNs = nowNs();
    probes[id].comm = &comm;
  };
  // The hook runs inside the timed job, so it keeps to the cheap per-op
  // field check; validateNow runs after the timed batches.
  fo.postStepHook = [&](int id, chns::ChnsSolver<2>& s) {
    int steps;
    const sim::SimComm* comm;
    bool sampled;
    {
      std::lock_guard<std::mutex> lock(mu);
      steps = probes[id].steps;
      comm = probes[id].comm;
      sampled = sample;
    }
    if (s.stepsTaken() != steps) return;
    std::string bad = checkFields(s);
    LayerSample fin;
    if (sampled) fin = sampleSolver(s, *comm);
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu);
    JobProbe& p = probes[id];
    p.bad = bad;
    if (sampled) {
      p.final = std::move(fin);
      p.sampled = true;
      recordSpan("farm.job", p.startNs, t, jobDepth);
    }
  };

  // Set-up: a smoke build of the campaign's first scenario on the caller,
  // as a job would run it (which also pays the process's first-use costs
  // before the timed jobs), then the pool start.
  const farm::ScenarioSpec smoke = [&] {
    Rng r0(o.seed);
    return drawBatch(r0, 0).front();
  }();
  for (int k = 0; k < 9; ++k) {
    ThreadPool::instance().setThreads(1);
    const double t0 = wallNow();
    {
      Span sp("setup");
      {
        sim::SimComm comm(smoke.ranks, sim::Machine::loopback());
        Span sb("farm::buildScenario");
        chns::ChnsSolver<2> s = farm::buildScenario(comm, smoke);
      }
      ThreadPool::instance().setThreads(kFarmThreads);
    }
    res.setupS.push_back(wallNow() - t0);
  }

  // One farm per batch, so memory and the init-state cache do not grow
  // with the number of batches that fit in a run.
  struct FirstJob {
    std::string point;
    bool restored = false;
    LayerSample final;
  };
  std::vector<FirstJob> firstJobs;  // first batch: the exact counts
  std::vector<farm::ScenarioSpec> firstBatch;
  farm::JobRecord lastJob;  // the last batch's first job, replayed below
  LayerTotals all;
  double jobWall = 0, queueWait = 0;
  long queueJobs = 0, hits = 0, misses = 0;
  const double tEnd = wallNow() + o.seconds;
  for (int b = 0; b == 0 || wallNow() < tEnd || res.attempted < kFarmMinJobs;
       ++b) {
    const bool traced = o.trace && b % 2 == 0;
    const std::vector<farm::ScenarioSpec> specs = drawBatch(rng, b);
    if (b == 0) firstBatch = specs;
    farm::ScenarioFarm farm(fo);
    {
      std::lock_guard<std::mutex> lock(mu);
      probes.clear();
      for (const auto& s : specs) probes[farm.addJob(s)].steps = s.steps;
      sample = traced;
    }
    setTracing(traced);
    const double c0 = cpuNow(), t0 = wallNow();
    const std::int64_t t0Ns = nowNs();
    {
      Span sp("ScenarioFarm::run");
      jobDepth = sp.depth() + 1;
      farm.run();
    }
    res.busyWall += wallNow() - t0;
    res.opCpu += cpuNow() - c0;
    setTracing(o.trace);
    hits += farm.initCacheHits();
    misses += farm.initCacheMisses();
    lastJob = farm.job(0);

    for (int id = 0; id < farm.jobCount(); ++id) {
      const farm::JobRecord& rec = farm.job(id);
      const JobProbe& p = probes[id];
      ++res.attempted;
      (traced || !o.trace ? res.opWall : res.opWallUntraced)
          .push_back(rec.wallSec);
      if (rec.state != farm::JobState::kDone)
        res.fail("job " + rec.spec.name + " retired " +
                 farm::jobStateName(rec.state) + ": " + rec.error);
      else if (!p.bad.empty())
        res.fail("job " + rec.spec.name + ": " + p.bad);
      else if (id >= kFarmPoints &&
               rec.history != farm.job(id - kFarmPoints).history)
        res.fail("job " + rec.spec.name +
                 ": history differs from its replica's");
      if (!p.sampled) continue;
      all.add(p.final);
      jobWall += rec.wallSec;
      queueWait += 1e-9 * double(p.startNs - t0Ns);
      ++queueJobs;
      if (b == 0)
        firstJobs.push_back(
            {pointName(rec.spec), rec.usedSharedInit, p.final});
    }
    fs::remove_all(root);
  }
  res.notes.push_back("init cache hits " + std::to_string(hits) +
                      ", misses " + std::to_string(misses));

  // The farm runs a job's nested parallel work inline, so its history
  // matches a serial run's bitwise. Replay one job serially, outside the
  // timed batches, check that, and validate the replayed final state.
  ThreadPool::instance().setThreads(1);
  {
    const farm::ScenarioSpec& spec = lastJob.spec;
    sim::SimComm comm(spec.ranks, sim::Machine::loopback());
    chns::ChnsSolver<2> s = farm::buildScenario(comm, spec);
    std::vector<Real> history;
    while (s.stepsTaken() < spec.steps) {
      s.step();
      history.push_back(farm::fieldFingerprint(s.phi(), s.mesh().nRanks()));
    }
    if (history != lastJob.history)
      res.fail("job " + spec.name +
               ": serial replay differs from its farm history");
    try {
      s.validateNow("end of run");
    } catch (const std::exception& e) {
      res.fail(std::string("validateNow: ") + e.what());
    }
  }
  if (!o.trace) return res;

  // Replays of the public calls a job makes before its first step, on
  // each distinct physics point of the first batch.
  std::map<std::string, InitReplay> init;  // by point name
  double buildS = 0, restoreS = 0, writeS = 0, readS = 0, ckBytes = 0;
  double melem = 0;
  fs::create_directories(root);
  for (int k = 0; k < kFarmPoints; ++k) {
    const farm::ScenarioSpec& spec = firstBatch[std::size_t(k)];
    InitReplay& ir = init[pointName(spec)];
    sim::SimComm comm(spec.ranks, sim::Machine::loopback());
    double t0 = wallNow();
    chns::ChnsSolver<2> built = [&] {
      Span sp("farm::buildScenario");
      return farm::buildScenario(comm, spec);
    }();
    buildS += wallNow() - t0;
    ir.built = sampleSolver(built, comm);
    const io::Checkpoint<2> ck = chns::makeSolverCheckpoint(built);
    {
      sim::SimComm comm2(spec.ranks, sim::Machine::loopback());
      t0 = wallNow();
      chns::ChnsSolver<2> restored = [&] {
        Span sp("chns::restoreSolverState");
        return chns::restoreSolverState<2>(comm2, ck, farm::toOptions(spec));
      }();
      restoreS += wallNow() - t0;
      ir.restored = sampleSolver(restored, comm2);
    }
    const std::string path = root + "/replay.bin";
    t0 = wallNow();
    {
      Span sp("chns::saveSolverState");
      chns::saveSolverState(path, built, farm::specHash(spec));
    }
    writeS += wallNow() - t0;
    ckBytes += double(fs::file_size(path));
    {
      sim::SimComm comm3(spec.ranks, sim::Machine::loopback());
      t0 = wallNow();
      Span sp("chns::restoreSolverState(file)");
      chns::ChnsSolver<2> back =
          chns::restoreSolverState<2>(comm3, path, farm::toOptions(spec));
      readS += wallNow() - t0;
    }
    if (k == 0) melem = matvecProbe(built);
  }
  fs::remove_all(root);

  // Exact counts cover the first batch, minus each job's own initial state:
  // built or restored, depending on the order the threads took the jobs.
  LayerTotals exact;
  for (const FirstJob& j : firstJobs) {
    const InitReplay& ir = init[j.point];
    exact.add(j.final - (j.restored ? ir.restored : ir.built));
  }
  res.layer = solverLayerMetrics(all, exact);
  const double n = double(kFarmPoints);
  res.layer.insert(
      res.layer.end(),
      {{"fem.matvec_melem_per_s", melem, "Melem/s"},
       {"bench.phase_coverage",
        phaseCoverage(all, jobWall,
                      {"ch-solve", "ns-solve", "pp-solve", "vu-solve",
                       "remesh"}),
        "ratio"},
       {"io.ck_write_s", writeS / n, "s"},
       {"io.ck_bytes", ckBytes / n, "B"},
       {"io.ck_restore_s", readS / n, "s"},
       {"farm.queue_wait_s", queueJobs ? queueWait / double(queueJobs) : 0.0,
        "s"},
       {"farm.init_build_s", buildS / n, "s"},
       {"farm.init_restore_s", restoreS / n, "s"},
       {"farm.init_cache_hit_frac",
        hits + misses > 0 ? double(hits) / double(hits + misses) : 0.0,
        "ratio"}});

  // The first eight jobs of the first batch as a farm of their own, on one
  // thread and on four.
  const auto timeFarm = [&](int threads) {
    Span sp(threads == 1 ? "speedup.1t" : "speedup.4t");
    ThreadPool::instance().setThreads(threads);
    farm::ScenarioFarm::Options so;
    so.rootDir = root;
    farm::ScenarioFarm f(so);
    for (int j = 0; j < 8; ++j) f.addJob(firstBatch[std::size_t(j)]);
    const double t0 = wallNow();
    f.run();
    const double t = wallNow() - t0;
    fs::remove_all(root);
    return t;
  };
  const double t1 = timeFarm(1);
  const double t4 = timeFarm(kFarmThreads);
  ThreadPool::instance().setThreads(kFarmThreads);
  res.layer.push_back({"support.speedup_4t", t1 / t4, "ratio"});
  res.notes.push_back("speedup probe: 8 jobs, 1 thread " + std::to_string(t1) +
                      " s, 4 threads " + std::to_string(t4) + " s");
  return res;
}

}  // namespace perfbench
