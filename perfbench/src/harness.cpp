#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>

#include "obs/trace.hpp"

namespace perfbench {

double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() { return double(next() >> 11) * 0x1.0p-53; }

// ---- Spans -----------------------------------------------------------------

namespace {
std::atomic<bool> gTracing{false};
int& spanDepth() {
  thread_local int depth = 0;
  return depth;
}
}  // namespace

void setTracing(bool on) { gTracing.store(on, std::memory_order_relaxed); }
bool tracing() { return gTracing.load(std::memory_order_relaxed); }

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void recordSpan(const char* name, std::int64_t t0Ns, std::int64_t t1Ns,
                int depth) {
  if (tracing()) pt::obs::Tracer::instance().record(name, t0Ns, t1Ns, depth);
}

Span::Span(const char* name) {
  if (!tracing()) return;
  name_ = name;
  depth_ = spanDepth()++;
  t0_ = nowNs();
}

Span::~Span() {
  if (!name_) return;
  --spanDepth();
  pt::obs::Tracer::instance().record(name_, t0_, nowNs(), depth_);
}

// ---- Host drift ------------------------------------------------------------

namespace {

/// Fixed dense floating-point kernel (12-30 ms on the 4-vCPU x86 host the
/// benchmark was tuned on, depending on its load). Its result feeds the
/// return value so the loop cannot be optimized away.
double calibrationLoop() {
  constexpr int kN = 96;
  std::vector<double> a(kN * kN), b(kN * kN), c(kN * kN, 0.0);
  for (int i = 0; i < kN * kN; ++i) {
    a[std::size_t(i)] = 1.0 + 1e-3 * (i % 17);
    b[std::size_t(i)] = 1.0 - 1e-3 * (i % 13);
  }
  for (int rep = 0; rep < 40; ++rep)
    for (int i = 0; i < kN; ++i)
      for (int k = 0; k < kN; ++k) {
        const double aik = a[std::size_t(i * kN + k)] * 1e-2;
        for (int j = 0; j < kN; ++j)
          c[std::size_t(i * kN + j)] += aik * b[std::size_t(k * kN + j)];
      }
  return c[0] + c[std::size_t(kN * kN - 1)];
}

}  // namespace

HostProbe HostProbe::take() {
  HostProbe p;
  volatile double sink = 0;
  std::vector<double> t;
  for (int i = 0; i < 3; ++i) {
    const double t0 = wallNow();
    sink = sink + calibrationLoop();
    t.push_back(wallNow() - t0);
  }
  p.calibS = median(t);
  std::ifstream st("/proc/stat");
  std::string cpu;
  if (st >> cpu && cpu == "cpu") {
    double v = 0;
    for (int i = 0; i < 8 && (st >> v); ++i) {
      p.totalTicks += v;
      if (i == 7) p.stealTicks = v;
    }
  }
  return p;
}

// ---- Per-layer accumulation -----------------------------------------------

LayerSample operator-(const LayerSample& a, const LayerSample& b) {
  LayerSample d = a;
  for (const auto& [k, v] : b.sec) d.sec[k] -= v;
  for (const auto& [k, v] : b.calls) d.calls[k] -= v;
  for (const auto& [k, v] : b.counters) d.counters[k] -= v;
  d.collectives -= b.collectives;
  d.messages -= b.messages;
  d.bytes -= b.bytes;
  return d;
}

void LayerTotals::add(const LayerSample& delta) {
  for (const auto& [k, v] : delta.sec) sum.sec[k] += v;
  for (const auto& [k, v] : delta.calls) sum.calls[k] += v;
  for (const auto& [k, v] : delta.counters) sum.counters[k] += v;
  sum.collectives += delta.collectives;
  sum.messages += delta.messages;
  sum.bytes += delta.bytes;
  sum.elems += delta.elems;
  ++ops;
}

namespace {

double get(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}
double get(const std::map<std::string, long>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : double(it->second);
}
double get(const std::map<std::string, long long>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : double(it->second);
}

}  // namespace

std::vector<Metric> solverLayerMetrics(const LayerTotals& all,
                                       const LayerTotals& exact) {
  const double n = all.ops > 0 ? double(all.ops) : 1.0;
  const double ne = exact.ops > 0 ? double(exact.ops) : 1.0;
  const auto& s = all.sum.sec;
  const auto& c = exact.sum.counters;
  const auto& calls = exact.sum.calls;
  const auto perOp = [&](std::initializer_list<const char*> keys) {
    double t = 0;
    for (const char* k : keys) t += get(s, k);
    return t / n;
  };
  const auto exactPerOp = [&](std::initializer_list<const char*> keys) {
    double t = 0;
    for (const char* k : keys) t += get(c, k);
    return t / ne;
  };
  const double remeshCalls = get(calls, "remesh");
  const double rebuilds = get(c, "meshRebuilds");
  return {
      {"chns.ch_solve_s", perOp({"ch-solve"}), "s"},
      {"chns.ns_solve_s", perOp({"ns-solve"}), "s"},
      {"chns.pp_solve_s", perOp({"pp-solve"}), "s"},
      {"chns.vu_solve_s", perOp({"vu-solve"}), "s"},
      {"la.ch_vcycle_s", perOp({"ch-pc"}), "s"},
      {"la.ns_vcycle_s", perOp({"ns-pc"}), "s"},
      {"la.pp_vcycle_s", perOp({"pp-pc"}), "s"},
      {"la.op_apply_s", perOp({"ch-op", "ns-op", "pp-op", "vu-op"}), "s"},
      {"la.assemble_s",
       perOp({"ch-assemble", "ns-assemble", "pp-assemble", "vu-assemble"}),
       "s"},
      {"la.newton_iters", exactPerOp({"ch-newton-iters"}), "count"},
      {"la.ch_krylov_iters", exactPerOp({"ch-ksp-iters"}), "count"},
      {"la.ns_krylov_iters", exactPerOp({"ns-ksp-iters"}), "count"},
      {"la.pp_krylov_iters", exactPerOp({"pp-ksp-iters"}), "count"},
      {"la.vu_krylov_iters", exactPerOp({"vu-ksp-iters"}), "count"},
      {"la.vcycles",
       (get(calls, "ch-pc") + get(calls, "ns-pc") + get(calls, "pp-pc")) / ne,
       "count"},
      {"la.gmg_hierarchy_builds", exactPerOp({"gmgHierarchyBuilds"}),
       "count"},
      {"la.gmg_degraded", get(c, "gmgPcFallbacks") + get(c, "gmgRetirements"),
       "count"},
      {"chns.remesh_s", perOp({"remesh"}), "s"},
      {"localcahn.identify_s", perOp({"remesh-identify"}), "s"},
      {"amr.refine_s", perOp({"remesh-refine"}), "s"},
      {"amr.coarsen_s", perOp({"remesh-coarsen"}), "s"},
      {"octree.balance_s", perOp({"remesh-balance"}), "s"},
      {"octree.repartition_s", perOp({"remesh-repartition"}), "s"},
      {"mesh.build_s", perOp({"remesh-meshbuild"}), "s"},
      {"intergrid.transfer_s", perOp({"remesh-transfer"}), "s"},
      {"mesh.elems", exact.sum.elems / ne, "count"},
      {"chns.mesh_rebuilds", rebuilds / ne, "count"},
      {"chns.noop_remeshes", exactPerOp({"noopRemeshes"}), "count"},
      {"amr.remesh_changed_frac",
       remeshCalls > 0 ? rebuilds / remeshCalls : 0.0, "ratio"},
      {"sim.collectives_per_op", exact.sum.collectives / ne, "count"},
      {"sim.messages_per_op", exact.sum.messages / ne, "count"},
      {"sim.bytes_per_op", exact.sum.bytes / ne, "B"},
  };
}

double phaseCoverage(const LayerTotals& all, double opWallSum,
                     const std::vector<std::string>& phases) {
  double t = 0;
  for (const auto& p : phases) t += get(all.sum.sec, p);
  return opWallSum > 0 ? t / opWallSum : 0.0;
}

double timePerCall(const std::function<void()>& fn, double minSeconds,
                   int minReps) {
  int reps = 0;
  const double t0 = wallNow();
  double t = t0;
  while (reps < minReps || t - t0 < minSeconds) {
    fn();
    ++reps;
    t = wallNow();
  }
  return (t - t0) / reps;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * double(v.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

}  // namespace perfbench
