// Thread-safe hierarchical span tracer (DESIGN.md §12).
//
// PT_SPAN("name") opens an RAII span on the calling thread; spans nest, and
// every thread — the coordinator and each ThreadPool worker — records into
// its own fixed-capacity ring buffer, so recording takes no shared lock on
// the hot path beyond the buffer's own (uncontended) guard. Buffers are
// merged at flush into a single event list and can be exported as Chrome
// trace-event JSON ("X" complete events), loadable in Perfetto or
// chrome://tracing — this is what makes the threaded matvec/remesh
// timelines visible.
//
// Overhead contract: with the tracer disabled (the default), PT_SPAN is one
// relaxed atomic load and a branch — asserted below measurement noise by
// tests/test_obs.cpp. The tracer is enabled either programmatically
// (Tracer::instance().enable()) or by setting PT_TRACE=<path> in the
// environment, which also registers an atexit hook that writes the trace
// file when the process ends.
//
// Determinism contract: tracing never changes results — spans only read the
// clock and append to per-thread storage; no solver data flows through the
// tracer (tests assert bitwise-identical solver histories with tracing on
// vs off).
//
// Multi-tenancy (DESIGN.md §14): the tracer is a process-global singleton,
// so concurrent scenario-farm jobs interleave their spans into the same
// per-thread rings. Each span therefore carries a job tag — the value of
// the thread-local currentJobTag() at open time, set via JobTagScope around
// a job's execution (nested parallelFor work runs inline on the same
// thread, so a job's entire span tree inherits its tag). The Chrome export
// emits it as args.job and tools/trace_summary.py splits the span tables
// per job. The rings, the dropped-event counter, and the interned-string
// table remain global aggregates — they meter the process, not a job.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace pt::obs {

/// One closed span, as merged out of the per-thread rings.
struct TraceEvent {
  const char* name;      ///< interned or static string
  std::int64_t startNs;  ///< ns since the tracer's enable() epoch
  std::int64_t durNs;
  int tid;    ///< dense per-thread id (0 = first recording thread)
  int depth;  ///< nesting depth on its thread when opened
  int job;    ///< currentJobTag() when opened (-1 = untagged)
};

/// Thread-local job tag stamped onto every span opened on this thread
/// (-1 = untagged single-tenant execution). Set via JobTagScope.
inline int& currentJobTag() {
  thread_local int tag = -1;
  return tag;
}

/// RAII job tag for the calling thread: spans (and per-job report rows)
/// opened inside the scope belong to job `id`. Nests; restores on exit.
struct JobTagScope {
  explicit JobTagScope(int id) : prev_(currentJobTag()) {
    currentJobTag() = id;
  }
  ~JobTagScope() { currentJobTag() = prev_; }
  JobTagScope(const JobTagScope&) = delete;
  JobTagScope& operator=(const JobTagScope&) = delete;

 private:
  int prev_;
};

class Tracer {
 public:
  /// Per-thread ring capacity in events. Oldest events are overwritten
  /// when a thread exceeds it between flushes (dropped count is kept).
  static constexpr std::size_t kRingCapacity = 1 << 15;

  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  /// Cheap global gate, readable from any thread (relaxed: a span that
  /// straddles enable/disable may be dropped, never torn).
  static bool active() { return activeFlag().load(std::memory_order_relaxed); }

  /// Starts recording. The first enable() fixes the time epoch; re-enabling
  /// after a disable keeps the epoch so timestamps stay monotone.
  void enable() {
    std::lock_guard<std::mutex> lock(mu_);
    if (epochNs_ == 0) epochNs_ = nowNs();
    activeFlag().store(true, std::memory_order_relaxed);
  }
  void disable() { activeFlag().store(false, std::memory_order_relaxed); }

  /// Interns a dynamic string so spans can carry stable const char* names.
  const char* intern(const std::string& s) {
    std::lock_guard<std::mutex> lock(mu_);
    return interned_.insert(s).first->c_str();
  }

  /// Appends one closed span for the calling thread. Called by SpanScope
  /// only while active().
  void record(const char* name, std::int64_t startNs, std::int64_t endNs,
              int depth) {
    ThreadBuf* tb = threadBuf();
    std::lock_guard<std::mutex> lock(tb->mu);
    const std::size_t slot = tb->total % kRingCapacity;
    if (tb->ring.size() <= slot) tb->ring.resize(slot + 1);
    tb->ring[slot] = TraceEvent{name, startNs - epochNs_, endNs - startNs,
                                tb->tid, depth, currentJobTag()};
    ++tb->total;
  }

  /// Merges and clears all per-thread rings. Events are ordered by
  /// (tid, startNs, depth): per-thread order is the ring's append order, so
  /// at fixed thread partitioning the merged sequence of (tid, name, depth)
  /// tuples is deterministic even though timestamps vary run to run.
  std::vector<TraceEvent> drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TraceEvent> out;
    for (auto& tbp : bufs_) {
      std::lock_guard<std::mutex> tlock(tbp->mu);
      const std::uint64_t kept =
          std::min<std::uint64_t>(tbp->total, kRingCapacity);
      dropped_ += tbp->total - kept;
      // Ring order: oldest kept event first.
      for (std::uint64_t i = 0; i < kept; ++i)
        out.push_back(tbp->ring[(tbp->total - kept + i) % kRingCapacity]);
      tbp->total = 0;
      tbp->ring.clear();
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.tid != b.tid) return a.tid < b.tid;
                       if (a.startNs != b.startNs) return a.startNs < b.startNs;
                       return a.depth < b.depth;
                     });
    return out;
  }

  /// Events overwritten in rings since the last drain that observed them.
  long dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<long>(dropped_);
  }

  /// Drains and writes Chrome trace-event JSON (the {"traceEvents": [...]}
  /// wrapper, "X" complete events, timestamps in microseconds). Returns
  /// false if the file cannot be opened. Safe with zero events.
  bool writeChromeTrace(const std::string& path) {
    std::vector<TraceEvent> evs = drain();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    // Thread-name metadata so Perfetto labels the worker lanes.
    std::set<int> tids;
    for (const TraceEvent& e : evs) tids.insert(e.tid);
    bool first = true;
    for (int tid : tids) {
      std::fprintf(f,
                   "%s{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": "
                   "\"thread_name\", \"args\": {\"name\": \"%s-%d\"}}",
                   first ? "" : ",\n", tid, tid == 0 ? "main" : "worker", tid);
      first = false;
    }
    for (const TraceEvent& e : evs) {
      std::fprintf(f,
                   "%s{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": ",
                   first ? "" : ",\n", e.tid);
      writeJsonString(f, e.name);
      if (e.job >= 0)
        std::fprintf(f,
                     ", \"cat\": \"pt\", \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"depth\": %d, \"job\": %d}}",
                     e.startNs / 1e3, e.durNs / 1e3, e.depth, e.job);
      else
        std::fprintf(f,
                     ", \"cat\": \"pt\", \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"depth\": %d}}",
                     e.startNs / 1e3, e.durNs / 1e3, e.depth);
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return true;
  }

  /// Env hookup: if PT_TRACE=<path> is set, enables the tracer and
  /// registers an atexit hook writing the trace there. Idempotent; called
  /// from SpanScope's first use and from Telemetry construction so any
  /// instrumented binary honors the variable without code changes.
  static void initFromEnv() {
    static const bool once = [] {
      if (const char* p = std::getenv("PT_TRACE")) {
        if (p[0] != '\0') {
          envPath() = p;
          instance().enable();
          std::atexit([] { instance().writeChromeTrace(envPath()); });
        }
      }
      return true;
    }();
    (void)once;
  }

 private:
  struct ThreadBuf {
    std::mutex mu;  ///< guards ring/total against a concurrent drain()
    std::vector<TraceEvent> ring;
    std::uint64_t total = 0;
    int tid = 0;
  };

  Tracer() = default;

  static std::atomic<bool>& activeFlag() {
    static std::atomic<bool> f{false};
    return f;
  }
  static std::string& envPath() {
    static std::string p;
    return p;
  }

  static std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Buffers are owned by the registry and outlive their threads, so spans
  /// recorded by pool workers survive a later ThreadPool::setThreads()
  /// teardown and still appear in the flushed trace.
  ThreadBuf* threadBuf() {
    thread_local ThreadBuf* tb = nullptr;
    if (!tb) {
      std::lock_guard<std::mutex> lock(mu_);
      bufs_.push_back(std::make_unique<ThreadBuf>());
      bufs_.back()->tid = static_cast<int>(bufs_.size()) - 1;
      tb = bufs_.back().get();
    }
    return tb;
  }

  static void writeJsonString(std::FILE* f, const char* s) {
    std::fputc('"', f);
    for (; *s; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      if (c == '"' || c == '\\')
        std::fprintf(f, "\\%c", c);
      else if (c < 0x20)
        std::fprintf(f, "\\u%04x", c);
      else
        std::fputc(c, f);
    }
    std::fputc('"', f);
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::set<std::string> interned_;
  std::int64_t epochNs_ = 0;
  std::uint64_t dropped_ = 0;

 public:
  friend struct SpanScope;
};

/// Per-thread nesting depth for span hierarchy reconstruction.
inline int& spanDepth() {
  thread_local int depth = 0;
  return depth;
}

/// RAII span. Construction with the tracer inactive costs one relaxed load
/// and a branch; with it active, two steady_clock reads and one ring append.
struct SpanScope {
  explicit SpanScope(const char* name) {
    if (!Tracer::active()) return;
    name_ = name;
    depth_ = spanDepth()++;
    startNs_ = Tracer::nowNs();
  }
  ~SpanScope() {
    if (!name_) return;
    --spanDepth();
    Tracer::instance().record(name_, startNs_, Tracer::nowNs(), depth_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t startNs_ = 0;
  int depth_ = 0;
};

}  // namespace pt::obs

// PT_SPAN(name): opens a span for the rest of the enclosing scope. `name`
// must outlive the trace flush — use a string literal or Tracer::intern.
#define PT_SPAN_CONCAT_(a, b) a##b
#define PT_SPAN_CONCAT(a, b) PT_SPAN_CONCAT_(a, b)
#define PT_SPAN(name) \
  ::pt::obs::SpanScope PT_SPAN_CONCAT(ptSpan_, __LINE__)(name)
