// Tests for the obs telemetry layer (DESIGN.md §12): span tracer semantics
// (nesting, per-thread merge, Chrome export), metric atomicity under the
// thread pool, the disabled-mode overhead contract, rank imbalance stats,
// step-report JSONL validity, and the tracing-never-changes-results gate.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/fields.hpp"
#include "chns/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/rankstats.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/thread_pool.hpp"

namespace pt {
namespace {

// ---- Minimal strict JSON parser (validation only, no external deps) --------

class JsonChecker {
 public:
  explicit JsonChecker(std::string s) : s_(std::move(s)) {}

  /// True iff the whole string is exactly one valid JSON value.
  bool valid() {
    i_ = 0;
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }
  bool object() {
    ++i_;  // {
    ws();
    if (peek() == '}') { ++i_; return true; }
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (peek() != ':') return false;
      ++i_;
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == '}') { ++i_; return true; }
      return false;
    }
  }
  bool array() {
    ++i_;  // [
    ws();
    if (peek() == ']') { ++i_; return true; }
    for (;;) {
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == ']') { ++i_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;
    return true;
  }
  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                              s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
    return i_ > start;
  }
  bool lit(const char* l) {
    for (; *l; ++l, ++i_)
      if (i_ >= s_.size() || s_[i_] != *l) return false;
    return true;
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\t' || s_[i_] == '\r'))
      ++i_;
  }
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

  std::string s_;
  std::size_t i_ = 0;
};

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  if (!f) return out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// Guard that leaves the global tracer disabled and drained.
struct TracerCleanup {
  ~TracerCleanup() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().drain();
  }
};

// ---- Phase accumulators ----------------------------------------------------

TEST(ObsPhase, ScopedPhaseAccumulates) {
  obs::Phase p;
  { obs::ScopedPhase sp(p); }
  { obs::ScopedPhase sp(p); }
  EXPECT_EQ(p.calls(), 2);
  EXPECT_GE(p.seconds(), 0.0);
  p.reset();
  EXPECT_EQ(p.calls(), 0);
  EXPECT_EQ(p.seconds(), 0.0);
}

TEST(ObsPhase, ConcurrentLapsAreExact) {
  auto& pool = support::ThreadPool::instance();
  pool.setThreads(4);
  obs::PhaseSet ps;
  obs::Phase& p = ps["shared"];
  constexpr int kPerPart = 500;
  pool.parallelFor(static_cast<std::size_t>(pool.threads()),
                   [&](int, std::size_t b, std::size_t e) {
                     for (std::size_t part = b; part < e; ++part)
                       for (int i = 0; i < kPerPart; ++i)
                         obs::ScopedPhase sp(p);
                   });
  EXPECT_EQ(p.calls(), static_cast<long>(pool.threads()) * kPerPart);
  pool.setThreads(1);
}

// ---- Metrics registry ------------------------------------------------------

TEST(ObsMetrics, CounterAtomicUnderThreads) {
  auto& pool = support::ThreadPool::instance();
  pool.setThreads(4);
  obs::Registry reg;
  obs::Counter& c = reg.counter("hits");
  constexpr long long kN = 100000;
  pool.parallelFor(static_cast<std::size_t>(4 * kN),
                   [&](int, std::size_t b, std::size_t e) {
                     for (std::size_t i = b; i < e; ++i) c.inc();
                   });
  EXPECT_EQ(c.value(), 4 * kN);
  pool.setThreads(1);
}

TEST(ObsMetrics, HistogramBucketsAndStats) {
  obs::Histogram h;
  EXPECT_EQ(obs::Histogram::bucketOf(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucketOf(0.99), 0);
  EXPECT_EQ(obs::Histogram::bucketOf(1.0), 1);
  EXPECT_EQ(obs::Histogram::bucketOf(2.0), 2);
  EXPECT_EQ(obs::Histogram::bucketOf(3.0), 2);
  EXPECT_EQ(obs::Histogram::bucketOf(4.0), 3);
  h.add(1.0);
  h.add(3.0);
  h.add(8.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 12.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(2), 1);
  EXPECT_EQ(h.bucket(4), 1);
}

TEST(ObsMetrics, RegistrySnapshots) {
  obs::Registry reg;
  reg.counter("a").inc(5);
  reg.gauge("g").set(2.5);
  reg.histogram("h").add(7.0);
  auto cs = reg.counters();
  auto gs = reg.gauges();
  auto hs = reg.histograms();
  EXPECT_EQ(cs.at("a").value, 5);
  EXPECT_DOUBLE_EQ(gs.at("g").value, 2.5);
  EXPECT_EQ(hs.at("h").count, 1);
  EXPECT_DOUBLE_EQ(hs.at("h").max, 7.0);
}

// ---- Span tracer -----------------------------------------------------------

TEST(ObsTrace, SpanNestingAndOrdering) {
  TracerCleanup cleanup;
  auto& tr = obs::Tracer::instance();
  tr.drain();
  tr.enable();
  {
    obs::SpanScope outer("outer");
    { obs::SpanScope inner("inner"); }
    { obs::SpanScope inner2("inner2"); }
  }
  tr.disable();
  std::vector<obs::TraceEvent> evs = tr.drain();
  ASSERT_EQ(evs.size(), 3u);
  // Sorted by (tid, startNs, depth): outer opened first.
  EXPECT_STREQ(evs[0].name, "outer");
  EXPECT_EQ(evs[0].depth, 0);
  EXPECT_STREQ(evs[1].name, "inner");
  EXPECT_EQ(evs[1].depth, 1);
  EXPECT_STREQ(evs[2].name, "inner2");
  EXPECT_EQ(evs[2].depth, 1);
  // Parent encloses children.
  EXPECT_LE(evs[0].startNs, evs[1].startNs);
  EXPECT_GE(evs[0].startNs + evs[0].durNs, evs[2].startNs + evs[2].durNs);
  // inner precedes inner2 on the same thread.
  EXPECT_LE(evs[1].startNs + evs[1].durNs, evs[2].startNs);
  EXPECT_EQ(evs[0].tid, evs[1].tid);
}

TEST(ObsTrace, PerThreadMergeIsDeterministic) {
  TracerCleanup cleanup;
  auto& pool = support::ThreadPool::instance();
  pool.setThreads(4);
  static const char* kNames[] = {"p0", "p1", "p2", "p3"};
  constexpr int kReps = 50;
  auto run = [&] {
    auto& tr = obs::Tracer::instance();
    tr.drain();
    tr.enable();
    pool.parallelFor(static_cast<std::size_t>(pool.threads()),
                     [&](int part, std::size_t b, std::size_t e) {
                       for (std::size_t p = b; p < e; ++p)
                         for (int i = 0; i < kReps; ++i)
                           obs::SpanScope s(kNames[p]);
                     });
    tr.disable();
    // Per-tid ordered name sequences, then sorted across tids: independent
    // of which OS thread got which tid this run.
    std::map<int, std::vector<std::string>> byTid;
    for (const obs::TraceEvent& ev : tr.drain())
      byTid[ev.tid].push_back(ev.name);
    std::vector<std::vector<std::string>> seqs;
    for (auto& [tid, seq] : byTid) seqs.push_back(seq);
    std::sort(seqs.begin(), seqs.end());
    return seqs;
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a, b);
  // Fixed partition geometry: every partition's spans stay on one thread,
  // in issue order.
  std::size_t total = 0;
  for (const auto& seq : a) {
    ASSERT_FALSE(seq.empty());
    for (const auto& n : seq) EXPECT_EQ(n, seq.front());
    EXPECT_EQ(seq.size() % kReps, 0u);
    total += seq.size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(pool.threads()) * kReps);
  pool.setThreads(1);
}

TEST(ObsTrace, ChromeTraceFileIsWellFormed) {
  TracerCleanup cleanup;
  auto& pool = support::ThreadPool::instance();
  pool.setThreads(4);
  auto& tr = obs::Tracer::instance();
  tr.drain();
  tr.enable();
  {
    obs::SpanScope s("top \"quoted\" name");
    pool.parallelFor(static_cast<std::size_t>(pool.threads()),
                     [&](int, std::size_t b, std::size_t e) {
                       for (std::size_t p = b; p < e; ++p)
                         obs::SpanScope w("worker-span");
                     });
  }
  tr.disable();
  const std::string path = "test_obs_trace.json";
  ASSERT_TRUE(tr.writeChromeTrace(path));
  const std::string body = slurp(path);
  JsonChecker jc(body);
  EXPECT_TRUE(jc.valid()) << body.substr(0, 400);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(body.find("worker-span"), std::string::npos);
  std::remove(path.c_str());
  pool.setThreads(1);
}

TEST(ObsTrace, DisabledSpanOverheadBound) {
  // Force-disable: under the release-trace ctest preset PT_TRACE is set and
  // a prior test may have run the env hookup.
  obs::Tracer::instance().disable();
  ASSERT_FALSE(obs::Tracer::active());
  constexpr long kIters = 2000000;
  const auto t0 = std::chrono::steady_clock::now();
  for (long i = 0; i < kIters; ++i) {
    PT_SPAN("noop");
  }
  const double ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                               t0)
          .count() /
      kIters;
  // Contract: a disabled span is one relaxed load + branch. The bound is
  // deliberately loose (sanitizer builds instrument the load) while still
  // catching any accidental lock, allocation, or clock read on the path.
  EXPECT_LT(ns, 250.0);
}

// ---- Rank stats ------------------------------------------------------------

TEST(ObsRankStats, ImbalanceSummaryFromSimClocks) {
  sim::SimComm comm(4, sim::Machine::loopback());
  obs::RankPhases<sim::SimComm> rp(&comm);
  rp.setEnabled(true);
  rp.begin();
  for (int r = 0; r < 4; ++r) comm.chargeWork(r, 1e6 * (r + 1));
  rp.end("solve");
  const std::vector<double> per = rp.perRank("solve");
  ASSERT_EQ(per.size(), 4u);
  for (int r = 1; r < 4; ++r) EXPECT_GT(per[r], per[r - 1]);
  const obs::RankSummary s = rp.summary("solve");
  EXPECT_DOUBLE_EQ(s.minSec, per[0]);
  EXPECT_DOUBLE_EQ(s.maxSec, per[3]);
  EXPECT_NEAR(s.meanSec, (per[0] + per[1] + per[2] + per[3]) / 4.0, 1e-15);
  EXPECT_NEAR(s.imbalance, s.maxSec / s.meanSec, 1e-12);
  EXPECT_GT(s.imbalance, 1.0);
}

TEST(ObsRankStats, DisabledScopeIsNoop) {
  sim::SimComm comm(2, sim::Machine::loopback());
  obs::RankPhases<sim::SimComm> rp(&comm);
  {
    obs::RankPhases<sim::SimComm>::Scope sc(rp, "w");
    comm.chargeWork(0, 1e6);
  }
  EXPECT_TRUE(rp.perRank("w").empty());
  EXPECT_TRUE(rp.all().empty());
}

// ---- Step reports ----------------------------------------------------------

TEST(ObsReport, StepReporterEmitsValidJsonlWithExactDeltas) {
  const std::string path = "test_obs_steps.jsonl";
  obs::PhaseSet phases;
  obs::Registry metrics;
  {
    obs::StepReporter rep(path);
    ASSERT_TRUE(rep.ok());
    for (long step = 1; step <= 3; ++step) {
      { obs::ScopedPhase sp(phases["ch-solve"]); }
      phases["ns-solve"].add(0.125 * step);
      metrics.counter("meshRebuilds").inc();
      rep.writeStep(step, phases, metrics, {}, {{"dt", 1e-3}});
    }
  }
  const std::string body = slurp(path);
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t nl = body.find('\n', pos);
    if (nl == std::string::npos) break;
    lines.push_back(body.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  double nsSum = 0;
  long chCalls = 0;
  for (const std::string& line : lines) {
    JsonChecker jc(line);
    EXPECT_TRUE(jc.valid()) << line;
    EXPECT_NE(line.find("\"schema\": \"pt-step-v1\""), std::string::npos);
    EXPECT_NE(line.find("\"phases\""), std::string::npos);
    EXPECT_NE(line.find("\"counters\""), std::string::npos);
    // Pull the ns-solve per-step delta out of the line (fixed formatting).
    const std::size_t k = line.find("\"ns-solve\": {\"sec\": ");
    ASSERT_NE(k, std::string::npos);
    nsSum += std::atof(line.c_str() + k + 21);
    const std::size_t c = line.find("\"ch-solve\": {\"sec\": ");
    ASSERT_NE(c, std::string::npos);
    const std::size_t cc = line.find("\"calls\": ", c);
    chCalls += std::atol(line.c_str() + cc + 9);
  }
  // Summed per-step deltas reproduce the cumulative totals.
  EXPECT_NEAR(nsSum, phases["ns-solve"].seconds(), 1e-9);
  EXPECT_EQ(chCalls, phases["ch-solve"].calls());
  std::remove(path.c_str());
}

TEST(ObsReport, BenchReportIsValidJson) {
  const std::string path = "test_obs_bench.json";
  obs::BenchReport r("unit_bench");
  r.info["workload"] = "tiny";
  obs::BenchConfig c;
  c.name = "base\"line";  // escaping must hold
  c.metrics["total_sec"] = 1.25;
  c.phases["ch-solve"] = obs::PhaseStat(0.5, 2);
  c.counters["meshRebuilds"] = 3;
  c.series["step_sec"] = {0.6, 0.65};
  r.configs.push_back(c);
  r.derived["speedup"] = 1.0;
  ASSERT_TRUE(r.write(path));
  const std::string body = slurp(path);
  JsonChecker jc(body);
  EXPECT_TRUE(jc.valid()) << body.substr(0, 400);
  EXPECT_NE(body.find("\"schema\": \"pt-bench-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"configs\""), std::string::npos);
  std::remove(path.c_str());
}

// ---- Tracing never changes results -----------------------------------------

struct History {
  std::vector<Field> phi, vel;
  std::vector<int> newtonIters, nsIters, ppIters;
  std::vector<Real> residuals;
};

History runDrop(bool trace) {
  TracerCleanup cleanup;
  sim::SimComm comm(2, sim::Machine::loopback());
  chns::ChnsOptions<2> opt;
  opt.params.Cn = 0.04;
  opt.dt = 2e-3;
  opt.blocksPerStep = 1;
  opt.remeshEvery = 2;
  opt.coarseLevel = 3;
  opt.interfaceLevel = 5;
  opt.featureLevel = 5;
  opt.referenceLevel = 5;
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  // After construction: Telemetry's env hookup (PT_TRACE) may have enabled
  // the tracer, so force the state this leg of the comparison needs.
  auto& tr = obs::Tracer::instance();
  tr.drain();
  if (trace)
    tr.enable();
  else
    tr.disable();
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });
  History h;
  for (int i = 0; i < 4; ++i) {
    s.step();
    h.phi.push_back(s.phi());
    h.vel.push_back(s.velocity());
    h.newtonIters.push_back(s.lastChNewton_.iterations);
    h.nsIters.push_back(s.lastNs_.iterations);
    h.ppIters.push_back(s.lastPp_.iterations);
    h.residuals.push_back(s.lastChNewton_.residualNorm);
  }
  return h;
}

TEST(ObsTrace, SolverHistoryBitwiseIdenticalTracingOnOff) {
  History off = runDrop(false);
  History on = runDrop(true);
  ASSERT_EQ(off.phi.size(), on.phi.size());
  for (std::size_t i = 0; i < off.phi.size(); ++i) {
    EXPECT_EQ(off.newtonIters[i], on.newtonIters[i]) << "step " << i;
    EXPECT_EQ(off.nsIters[i], on.nsIters[i]) << "step " << i;
    EXPECT_EQ(off.ppIters[i], on.ppIters[i]) << "step " << i;
    // Bitwise equality: memcmp-style via exact double compares.
    EXPECT_EQ(off.residuals[i], on.residuals[i]) << "step " << i;
    for (std::size_t r = 0; r < off.phi[i].size(); ++r) {
      EXPECT_EQ(off.phi[i][r], on.phi[i][r]) << "step " << i;
      EXPECT_EQ(off.vel[i][r], on.vel[i][r]) << "step " << i;
    }
  }
}

// ---- Solver telemetry integration ------------------------------------------

TEST(ObsTelemetry, SolverPopulatesMetricsAndRankStats) {
  sim::SimComm comm(2, sim::Machine::loopback());
  chns::ChnsOptions<2> opt;
  opt.params.Cn = 0.04;
  opt.dt = 2e-3;
  opt.blocksPerStep = 1;
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });
  s.telemetry().ranks.setEnabled(true);
  const auto stats0 = comm.stats();
  s.step();
  auto counters = s.telemetry().metrics.counters();
  EXPECT_GT(counters.at("ch-newton-iters").value, 0);
  EXPECT_GT(counters.at("pp-ksp-iters").value, 0);
  EXPECT_EQ(counters.at("meshRebuilds").value, s.meshRebuilds());
  auto hist = s.telemetry().metrics.histograms();
  EXPECT_EQ(hist.at("ksp-iters-pp").count, 1);
  // Rank attribution recorded the solve phases without extra collectives
  // beyond what the step itself performs (local clock folding only).
  auto ranks = s.telemetry().ranks.all();
  ASSERT_TRUE(ranks.count("ch-solve"));
  EXPECT_GE(ranks["ch-solve"].imbalance, 1.0);
  EXPECT_GT(ranks["ch-solve"].maxSec, 0.0);
  // The per-step JSONL emitter accepts the solver's telemetry directly.
  const std::string path = "test_obs_solver_steps.jsonl";
  {
    obs::StepReporter rep(path);
    rep.writeStep(s.stepsTaken(), s.timers(), s.telemetry().metrics,
                  s.telemetry().ranks.all(),
                  {{"dt", opt.dt}});
  }
  const std::string body = slurp(path);
  ASSERT_FALSE(body.empty());
  JsonChecker jc(body.substr(0, body.find('\n')));
  EXPECT_TRUE(jc.valid()) << body;
  EXPECT_NE(body.find("\"ranks\""), std::string::npos);
  std::remove(path.c_str());
  (void)stats0;
}

}  // namespace
}  // namespace pt
