// Workload-independent plumbing of the benchmark: clocks, the seeded input
// generator, the benchmark's spans, host-drift probes, and the per-layer
// accumulators fed from the solver's own timers and counters. Nothing here
// calls into the library except its span tracer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---- Clocks ----------------------------------------------------------------

double wallNow();    ///< steady clock, seconds
double cpuNow();     ///< process CPU time (all threads), seconds
double peakRssMb();  ///< peak resident set size of this process, MiB

// ---- Inputs ----------------------------------------------------------------

/// splitmix64 with hand-written mappings: std distributions are
/// implementation-defined, and a seed must give the same inputs on every
/// standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  double uniform(double a, double b) { return a + (b - a) * uniform(); }
  int below(int n) { return static_cast<int>(next() % std::uint64_t(n)); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[std::size_t(below(int(i)))]);
  }

 private:
  std::uint64_t s_;
};

// ---- Spans -----------------------------------------------------------------

/// The benchmark's own spans go to the library's in-memory tracer through
/// pt::obs::Tracer::record(), which leaves the tracer's global flag off, so
/// the span sites inside the library stay off. They are written at the end
/// of a traced run with Tracer::writeChromeTrace(). Off by default.
void setTracing(bool on);
bool tracing();
std::int64_t nowNs();  ///< steady clock, nanoseconds

/// Records one finished span on the calling thread at nesting `depth`
/// (0 = top level), if tracing is on. Names must be string literals.
void recordSpan(const char* name, std::int64_t t0Ns, std::int64_t t1Ns,
                int depth);

/// RAII span; nests on the calling thread.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  int depth() const { return depth_; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  ///< null when tracing was off at the open
  std::int64_t t0_ = 0;
  int depth_ = 0;
};

// ---- Host drift ------------------------------------------------------------

/// Diagnostics only, never used to scale a metric: a fixed calibration loop
/// owned by the benchmark, and the host's cumulative steal ticks.
struct HostProbe {
  double calibS = 0;
  double stealTicks = 0;
  double totalTicks = 0;
  static HostProbe take();
};

// ---- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main().
struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;  ///< failed checks, one line each
  std::vector<double> setupS;         ///< every set-up repetition
  std::vector<double> opWall;         ///< every timed op
  std::vector<double> opWallUntraced; ///< ops timed with tracing off
  double opCpu = 0;     ///< process CPU seconds over the timed ops
  double busyWall = 0;  ///< wall seconds the timed ops kept the process busy
  int threads = 1;      ///< pool width of the timed loop
  long minOps = 1;      ///< ops every run of the workload reaches
  std::vector<Metric> layer;  ///< per-layer metrics (traced runs)
  std::vector<std::string> notes;

  void fail(const std::string& what) {
    ++failed;
    if (problems.size() < 20) problems.push_back(what);
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string outDir = ".";
};

// ---- Per-layer accumulation -----------------------------------------------

/// Cumulative counters of one solver (and its communicator) at a point in
/// time. Differences of two samples give one op's work.
struct LayerSample {
  std::map<std::string, double> sec;
  std::map<std::string, long> calls;
  std::map<std::string, long long> counters;
  double collectives = 0, messages = 0, bytes = 0;
  double elems = 0;  ///< element count at the sample (not differenced)
};

LayerSample operator-(const LayerSample& a, const LayerSample& b);

/// Sum of per-op deltas over a set of ops.
struct LayerTotals {
  LayerSample sum;
  long ops = 0;
  void add(const LayerSample& delta);
};

/// Solver-derived per-layer metrics. Timings average over `all`; the counts
/// marked exact average over `exact`, a fixed prefix of the run's ops, so
/// they repeat bitwise across runs at one seed.
std::vector<Metric> solverLayerMetrics(const LayerTotals& all,
                                       const LayerTotals& exact);

/// Share of the op wall time that the named solver phases cover.
double phaseCoverage(const LayerTotals& all, double opWallSum,
                     const std::vector<std::string>& phases);

/// Timed loop of `fn` until at least `minSeconds` and `minReps` passed;
/// returns seconds per call.
double timePerCall(const std::function<void()>& fn, double minSeconds,
                   int minReps);

double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);

}  // namespace perfbench
