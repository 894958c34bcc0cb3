// Thread-safe phase accumulators: the project's one wall-clock timer
// (DESIGN.md §12).
//
// A Phase stores NO in-flight state: the start timestamp lives on the
// measuring scope's stack (ScopedPhase / PhaseLap), and completion adds
// atomically. Any number of threads can time the same Phase concurrently
// and the totals are exact.
//
// A Phase is pure accumulation (seconds + calls); pair it with a trace span
// via TimedSpan when the interval should also appear on the timeline.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>

#include "obs/trace.hpp"

namespace pt::obs {

/// Accumulated wall-clock seconds and call count for one named phase.
/// add() is lock-free and safe from any thread.
class Phase {
 public:
  void add(double sec) {
    total_.fetch_add(sec, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  double seconds() const { return total_.load(std::memory_order_relaxed); }
  long calls() const { return calls_.load(std::memory_order_relaxed); }
  void reset() {
    total_.store(0.0, std::memory_order_relaxed);
    calls_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> total_{0.0};
  std::atomic<long> calls_{0};
};

/// RAII measurement into a Phase; the start timestamp is a stack local, so
/// concurrent laps on one Phase from many threads are safe.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase& p) : p_(&p), begin_(Clock::now()) {}
  ~ScopedPhase() { stop(); }
  /// Early stop (idempotent).
  void stop() {
    if (!p_) return;
    p_->add(std::chrono::duration<double>(Clock::now() - begin_).count());
    p_ = nullptr;
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  Phase* p_;
  Clock::time_point begin_;
};

/// Restartable stack-held lap clock for hot loops that time many disjoint
/// intervals into (possibly null) phases without re-declaring scopes:
///
///   PhaseLap lap;
///   lap.begin(); ... ; lap.end(phasePtr);   // no-op when phasePtr == null
class PhaseLap {
 public:
  void begin() { begin_ = Clock::now(); }
  void end(Phase* p) {
    if (!p) return;
    p->add(std::chrono::duration<double>(Clock::now() - begin_).count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point begin_{};
};

/// Copyable snapshot of one phase
/// (`for (auto& [name, t] : phases.all()) t.seconds()`).
class PhaseStat {
 public:
  PhaseStat() = default;
  PhaseStat(double sec, long calls) : sec_(sec), calls_(calls) {}
  double seconds() const { return sec_; }
  long calls() const { return calls_; }

 private:
  double sec_ = 0;
  long calls_ = 0;
};

/// Named registry of phases. operator[] is mutex-guarded (creation only;
/// updates on the returned Phase are lock-free) and references stay valid
/// for the set's lifetime.
class PhaseSet {
 public:
  Phase& operator[](const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return phases_[name];
  }
  /// Point-in-time snapshot of every phase.
  std::map<std::string, PhaseStat> all() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, PhaseStat> out;
    for (const auto& [k, v] : phases_)
      out.emplace(k, PhaseStat(v.seconds(), v.calls()));
    return out;
  }
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [k, v] : phases_) v.reset();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, Phase> phases_;
};

/// Phase accumulation + trace span in one scope: the standard way to
/// instrument a named solver/remesh phase. `name` must be a literal (or
/// interned) — it is handed to the tracer.
class TimedSpan {
 public:
  TimedSpan(PhaseSet& set, const char* name) : lap_(set[name]), span_(name) {}

 private:
  ScopedPhase lap_;
  SpanScope span_;
};

}  // namespace pt::obs
