// A small reusable worker pool for intra-process parallelism (the MATVEC
// engine's per-rank and per-batch loops). Design goals, in order:
//
//  1. Determinism: parallelFor splits the index range into *static*
//     contiguous partitions, one per participant, computed from the range
//     size alone. Which OS thread executes a partition is irrelevant to the
//     result as long as callers key scratch/output off the partition index
//     (not the thread id) — there is no work stealing and no atomic
//     tie-breaking, so a given (n, threads()) pair always yields the same
//     partition geometry.
//  2. Opt-in: the pool starts with one participant unless PT_NUM_THREADS
//     is set in the environment or setThreads() is called. A
//     single-participant pool never spawns threads and runs partitions
//     inline, so default runs behave exactly like the pre-pool code.
//  3. Re-entrancy safety: parallelFor called from inside a worker (nested
//     parallelism) degrades to inline serial execution instead of
//     deadlocking on the pool's own queue.
//
// Coordinator contract: parallelFor and setThreads share one job slot, so
// only one thread can act as the fork-join coordinator at a time. Nested
// calls from workers run inline; a *concurrent* parallelFor from a second
// non-worker thread (e.g. two scenario-farm jobs stepping at once) does a
// try-acquire on the coordinator slot and, on losing, also runs inline —
// the same deterministic serial semantics as a one-participant pool, never
// a corrupted job slot (this used to be a debug-only assert and silent
// release-mode corruption). setThreads blocks until the slot is free and
// must not be called from inside a parallelFor callback or a task.
//
// Task-queue mode: TaskQueue (below) layers a work-stealing scheduler over
// the fork-join primitive for heterogeneous, independent tasks — one deque
// per participant, round-robin dealing, steal-from-the-back when a deque
// runs dry, re-entrant submission from inside running tasks. Tasks execute
// inside pool participants, so any parallelFor a task issues runs inline
// (bitwise identical to a serial run of the same task).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace pt::support {

class ThreadPool {
 public:
  /// The process-wide pool used by the MATVEC engine.
  static ThreadPool& instance() {
    static ThreadPool pool(envThreads());
    return pool;
  }

  /// Number of participants (>= 1). 1 means fully serial.
  int threads() const { return nThreads_; }

  /// Resizes the pool. n <= 1 tears all workers down (serial mode).
  /// Blocks until any in-flight parallelFor or TaskQueue drain finishes;
  /// must not be called from inside a parallelFor callback or a task
  /// (self-deadlock on the coordinator slot).
  void setThreads(int n) {
    while (coordinating_.exchange(true, std::memory_order_acquire))
      std::this_thread::yield();
    CoordinatorRelease release(*this);
    if (n < 1) n = 1;
    if (n == nThreads_) return;
    stopWorkers();
    nThreads_ = n;
    startWorkers();
  }

  ~ThreadPool() { stopWorkers(); }

  /// Runs fn(part, begin, end) over a static partition of [0, n) into
  /// threads() contiguous parts (empty parts are skipped). Part 0 runs on
  /// the calling thread; parts 1.. run on the workers. Blocks until all
  /// parts finish. Nested calls (from inside a worker), and calls that find
  /// the coordinator slot already held by another thread, run serially
  /// inline — bitwise identical to a one-participant pool.
  ///
  /// If any part throws, the remaining parts still run to completion, and
  /// the first exception (part 0's, if it also threw) is rethrown here
  /// after the join barrier — workers never terminate the process.
  template <typename F>
  void parallelFor(std::size_t n, F&& fn) {
    const int parts = nThreads_;
    if (n == 0) return;
    if (parts <= 1 || inWorker_) {
      fn(0, std::size_t{0}, n);
      return;
    }
    // Concurrent-coordinator fallback: the job slot is a single fork-join
    // channel. If another thread owns it right now (a second non-worker
    // thread mid-parallelFor, or this thread's own TaskQueue drain with a
    // task calling back in), run inline instead of corrupting the slot.
    bool expected = false;
    if (!coordinating_.compare_exchange_strong(expected, true,
                                               std::memory_order_acquire)) {
      fn(0, std::size_t{0}, n);
      return;
    }
    CoordinatorRelease release(*this);
    // The job slot is a raw trampoline + context pointer, not a
    // std::function: vector-space kernels issue a parallelFor per axpy/dot,
    // and a std::function capture of (fn, n, parts) exceeds the small-buffer
    // size, turning every hot-loop call into a heap allocation. The context
    // lives on this stack frame; workers are joined below before it dies.
    using Fn = std::remove_reference_t<F>;
    Ctx<Fn> ctx{&fn, n, parts};
    Job job{&runPart<Fn>, &ctx};
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_ = job;
      pendingParts_ = parts - 1;
      ++generation_;
    }
    cv_.notify_all();
    std::exception_ptr callerErr;
    try {
      job.run(job.ctx, 0);  // the caller is participant 0
    } catch (...) {
      callerErr = std::current_exception();
    }
    std::exception_ptr workerErr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      doneCv_.wait(lock, [this] { return pendingParts_ == 0; });
      job_ = Job{};
      workerErr = firstErr_;
      firstErr_ = nullptr;
    }
    if (callerErr) std::rethrow_exception(callerErr);
    if (workerErr) std::rethrow_exception(workerErr);
  }

  /// Static contiguous split of [0, n) into `parts`; returns [begin, end)
  /// of `part`. Exposed so callers can reason about partition geometry.
  static std::pair<std::size_t, std::size_t> partition(std::size_t n,
                                                       int parts, int part) {
    const std::size_t b = n * part / parts;
    const std::size_t e = n * (part + 1) / parts;
    return {b, e};
  }

 private:
  /// POD job slot: trampoline + caller-stack context (see parallelFor).
  struct Job {
    void (*run)(void*, int) = nullptr;
    void* ctx = nullptr;
  };
  template <typename Fn>
  struct Ctx {
    Fn* fn;
    std::size_t n;
    int parts;
  };
  template <typename Fn>
  static void runPart(void* c, int part) {
    auto* x = static_cast<Ctx<Fn>*>(c);
    const auto [b, e] = partition(x->n, x->parts, part);
    if (b < e) (*x->fn)(part, b, e);
  }

  explicit ThreadPool(int n) : nThreads_(n < 1 ? 1 : n) { startWorkers(); }

  static int envThreads() {
    if (const char* s = std::getenv("PT_NUM_THREADS")) {
      const int n = std::atoi(s);
      if (n >= 1) return n;
    }
    return 1;
  }

  void startWorkers() {
    if (nThreads_ <= 1) return;
    stop_ = false;
    pendingParts_ = 0;
    workers_.reserve(nThreads_ - 1);
    // Workers spawn already synchronized to the current generation:
    // stopWorkers() bumps generation_ to wake waiters, so a worker born
    // with seen = 0 after a stop/start cycle would otherwise see a stale
    // bump, run a null job, and corrupt pendingParts_. No lock needed —
    // all previous workers are joined and we are on the coordinator.
    const std::uint64_t gen = generation_;
    for (int w = 1; w < nThreads_; ++w)
      workers_.emplace_back([this, w, gen] { workerLoop(w, gen); });
  }

  void stopWorkers() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop_ = true;
      ++generation_;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
    workers_.clear();
    stop_ = false;
  }

  void workerLoop(int part, std::uint64_t seen) {
    inWorker_ = true;
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        seen = generation_;
        if (stop_) return;
        job = job_;
      }
      // A generation bump with no published job carries no pendingParts_
      // share — decrementing for it would release a future parallelFor
      // early. (With seen synced at spawn this shouldn't happen, but stay
      // safe against future bookkeeping bumps.)
      if (!job.run) continue;
      try {
        job.run(job.ctx, part);
      } catch (...) {
        std::unique_lock<std::mutex> lock(mu_);
        if (!firstErr_) firstErr_ = std::current_exception();
      }
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (--pendingParts_ == 0) doneCv_.notify_all();
      }
    }
  }

  // Releases the (already acquired) coordinator slot at scope exit, after
  // the join barrier and before any rethrow.
  struct CoordinatorRelease {
    explicit CoordinatorRelease(ThreadPool& p) : pool(p) {}
    ~CoordinatorRelease() {
      pool.coordinating_.store(false, std::memory_order_release);
    }
    CoordinatorRelease(const CoordinatorRelease&) = delete;
    CoordinatorRelease& operator=(const CoordinatorRelease&) = delete;
    ThreadPool& pool;
  };

  int nThreads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_, doneCv_;
  Job job_;
  std::exception_ptr firstErr_;  // first worker exception, guarded by mu_
  std::uint64_t generation_ = 0;
  int pendingParts_ = 0;
  bool stop_ = false;
  /// The fork-join coordinator slot (see the header comment).
  std::atomic<bool> coordinating_{false};
  static thread_local bool inWorker_;

  friend class TaskQueue;
};

inline thread_local bool ThreadPool::inWorker_ = false;

/// Work-stealing task scheduler layered over the fork-join pool (the
/// "task-queue mode" of the header comment). Usage:
///
///   TaskQueue q(ThreadPool::instance());
///   q.submit([...]{ ... });   // any number of independent tasks
///   q.run();                  // drains everything, caller participates
///
/// run() opens one drain loop per pool participant through parallelFor.
/// Pre-run submissions are dealt round-robin to one deque per participant;
/// each participant pops its own deque front-first and, when dry, steals
/// from the back of sibling deques (classic owner-front/thief-back
/// splitting, so early-submitted long tasks migrate to idle participants).
/// Tasks may submit() more tasks while running — those land on the
/// submitting participant's own deque and are drained in the same pass.
///
/// Determinism: tasks execute inside pool participants, so any parallelFor
/// a task issues runs inline — each task's internal result is bitwise
/// independent of which participant runs it or of the stealing order.
/// Tasks must be independent of each other (no ordering is guaranteed).
/// A task that throws has its exception captured; run() rethrows the first
/// one after the queue is fully drained (remaining tasks still run).
class TaskQueue {
 public:
  explicit TaskQueue(ThreadPool& pool) : pool_(pool) {}

  /// Enqueues one task. Thread-safe against concurrent submits from
  /// running tasks; not against a concurrent run() from another thread.
  void submit(std::function<void()> task) {
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    const int self = currentPart();
    if (self >= 0 && queues_) {  // re-entrant: called from inside a task
      std::lock_guard<std::mutex> lock(queues_[self].mu);
      queues_[self].q.push_back(std::move(task));
      return;
    }
    std::lock_guard<std::mutex> lock(seedMu_);
    seed_.push_back(std::move(task));
  }

  /// Runs every submitted task to completion. The caller is participant 0;
  /// if the pool's coordinator slot is busy (or the pool is serial) the
  /// whole queue drains inline on the calling thread.
  void run() {
    const int parts = pool_.threads() < 1 ? 1 : pool_.threads();
    nQueues_ = parts;
    queues_ = std::make_unique<PartQueue[]>(parts);
    {
      std::lock_guard<std::mutex> lock(seedMu_);
      int next = 0;
      for (auto& t : seed_)
        queues_[next++ % parts].q.push_back(std::move(t));
      seed_.clear();
    }
    pool_.parallelFor(std::size_t(parts),
                      [this](int, std::size_t b, std::size_t e) {
                        for (std::size_t p = b; p < e; ++p) drain(int(p));
                      });
    queues_.reset();
    nQueues_ = 0;
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(seedMu_);
      err = firstErr_;
      firstErr_ = nullptr;
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  struct PartQueue {
    std::mutex mu;
    std::deque<std::function<void()>> q;
  };

  /// Index of the TaskQueue participant draining on this thread (-1 when
  /// not inside a drain loop) — routes re-entrant submits.
  static int& currentPart() {
    thread_local int part = -1;
    return part;
  }

  void drain(int self) {
    const int prev = currentPart();
    currentPart() = self;
    for (;;) {
      std::function<void()> task;
      {
        std::lock_guard<std::mutex> lock(queues_[self].mu);
        if (!queues_[self].q.empty()) {
          task = std::move(queues_[self].q.front());
          queues_[self].q.pop_front();
        }
      }
      for (int k = 1; !task && k < nQueues_; ++k) {
        PartQueue& victim = queues_[(self + k) % nQueues_];
        std::lock_guard<std::mutex> lock(victim.mu);
        if (!victim.q.empty()) {
          task = std::move(victim.q.back());
          victim.q.pop_back();
        }
      }
      if (task) {
        try {
          task();
        } catch (...) {
          std::lock_guard<std::mutex> lock(seedMu_);
          if (!firstErr_) firstErr_ = std::current_exception();
        }
        outstanding_.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      if (outstanding_.load(std::memory_order_acquire) == 0) break;
      std::this_thread::yield();
    }
    currentPart() = prev;
  }

  ThreadPool& pool_;
  std::mutex seedMu_;                        ///< guards seed_ and firstErr_
  std::vector<std::function<void()>> seed_;  ///< submits before run()
  std::unique_ptr<PartQueue[]> queues_;      ///< live only during run()
  int nQueues_ = 0;
  std::atomic<long> outstanding_{0};
  std::exception_ptr firstErr_;
};

}  // namespace pt::support
