// SimComm: a bulk-synchronous simulated communicator over P ranks.
//
// Every distributed algorithm in PhaseTree is written SPMD-style against
// this interface: per-rank data lives in PerRank<> containers, per-rank
// work runs through forEachRank, collectives and exchanges move real data
// between ranks, and each operation charges the alpha-beta machine model
// so that the simulated clock reproduces the communication behaviour the
// paper reports (tree collectives, staged k-way exchanges, NBX sparse
// exchange vs dense Alltoall, memoized Comm_split).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "support/types.hpp"

namespace pt::sim {

/// One entry per simulated rank.
template <typename T>
using PerRank = std::vector<T>;

/// Runs fn(r, innerThreads) for every simulated rank r: ranks in parallel
/// when the pool has workers and there are multiple ranks (each rank then
/// serial inside), otherwise in rank order with intra-rank threading
/// enabled. A body touches only rank-r state and charges only rank r, so
/// results are bitwise identical for any thread count.
template <typename Fn>
void forEachRank(int p, Fn&& fn) {
  auto& pool = support::ThreadPool::instance();
  if (pool.threads() > 1 && p > 1) {
    pool.parallelFor(static_cast<std::size_t>(p),
                     [&fn](int, std::size_t b, std::size_t e) {
                       PT_SPAN("rank-loop");
                       for (std::size_t r = b; r < e; ++r)
                         fn(static_cast<int>(r), false);
                     });
  } else {
    for (int r = 0; r < p; ++r) fn(r, pool.threads() > 1);
  }
}

/// Sparse message batch: per source rank, a list of (destination, payload).
template <typename T>
using SparseSends = PerRank<std::vector<std::pair<int, std::vector<T>>>>;

/// Communication statistics accumulated across the run; the ablation
/// benches report these alongside modeled time.
struct CommStats {
  long messages = 0;       ///< point-to-point messages
  double bytes = 0;        ///< total payload bytes moved
  long collectives = 0;    ///< collective invocations
  long commSplits = 0;     ///< actual (non-memoized) communicator splits
  long commSplitHits = 0;  ///< memoized splits served from the cache
  long splitExchanges = 0;   ///< exchanges issued through start/finish
  double overlapHidden = 0;  ///< exchange seconds hidden behind compute
};

/// In-flight half of a split-phase sparse exchange (exchangeStart /
/// exchangeFinish). The simulation is sequential, so the received payloads
/// are materialized at start time; what stays "in flight" is the *cost*:
/// the handle remembers when the exchange would complete on the slowest
/// rank (`readyTime`), and exchangeFinish advances the clocks to
/// max(now, readyTime). Any work charged between start and finish therefore
/// hides under the exchange latency — the virtual-clock charge becomes
/// max(comm, overlappable_compute) instead of comm + compute.
template <typename T>
class ExchangeHandle {
 public:
  ExchangeHandle() = default;
  bool open() const { return open_; }

 private:
  friend class SimComm;
  SparseSends<T> recv_;
  double startTime_ = 0;  ///< time() when the exchange was posted
  double readyTime_ = 0;  ///< time() at which the slowest rank completes
  bool open_ = false;
};

/// The memoized k-way communicator hierarchy (Sec II-C3b). Stage s groups
/// ranks into blocks of size groupSize[s]; the last stage has <= k ranks
/// per group.
struct KwayHierarchy {
  int k = 0;
  std::vector<long> groupSize;  ///< outermost first
};

/// Thrown when a scheduled fault fires (see SimComm::scheduleRankFailure):
/// the simulated rank dies at a collective boundary, which in real MPI
/// takes the whole job down — so the exception unwinds the entire
/// simulation, exactly like an aborted run. Deliberately NOT a CheckError:
/// a killed rank is an injected fault, not a broken invariant, and the
/// fault-injection tests must be able to tell the two apart.
class RankKilled : public std::runtime_error {
 public:
  RankKilled(int rank, long collective)
      : std::runtime_error("simulated rank " + std::to_string(rank) +
                           " killed at collective #" +
                           std::to_string(collective)),
        rank_(rank) {}
  int rank() const { return rank_; }

 private:
  int rank_;
};

class SimComm {
 public:
  SimComm(int nranks, Machine machine)
      : p_(nranks), machine_(machine), clock_(nranks, 0.0) {
    PT_CHECK(nranks >= 1);
  }

  int size() const { return p_; }
  const Machine& machine() const { return machine_; }
  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }

  /// Simulated elapsed time = the slowest rank's clock.
  double time() const {
    double t = 0;
    for (double c : clock_) t = std::max(t, c);
    return t;
  }
  double clockOf(int r) const { return clock_[r]; }
  void resetClocks() { std::fill(clock_.begin(), clock_.end(), 0.0); }

  /// Charge local computation time on one rank.
  void charge(int r, double seconds) { clock_[r] += seconds; }
  /// Charge `units` work-units at the machine's compute rate.
  void chargeWork(int r, double units) {
    clock_[r] += units / machine_.computeRate;
  }

  /// Synchronize all ranks at the max clock (barrier), charging `extra`
  /// seconds to everyone afterwards.
  void barrier(double extra = 0.0) {
    const double t = time() + extra;
    std::fill(clock_.begin(), clock_.end(), t);
  }

  // ---- Collectives (tree-based cost: O(log p)) --------------------------

  /// Allreduce of one value per rank; returns the combined value (delivered
  /// to every rank). Cost: 2 log2(p) (alpha + bytes*beta).
  template <typename T, typename Op>
  T allreduce(const PerRank<T>& vals, Op op) {
    PT_CHECK(static_cast<int>(vals.size()) == p_);
    T acc = vals[0];
    for (int r = 1; r < p_; ++r) acc = op(acc, vals[r]);
    chargeCollective(sizeof(T));
    return acc;
  }

  template <typename T>
  T allreduceSum(const PerRank<T>& vals) {
    return allreduce(vals, [](T a, T b) { return a + b; });
  }
  template <typename T>
  T allreduceMax(const PerRank<T>& vals) {
    return allreduce(vals, [](T a, T b) { return std::max(a, b); });
  }

  /// Exclusive prefix scan (MPI_Exscan); result[0] = T{}.
  template <typename T>
  PerRank<T> exscan(const PerRank<T>& vals) {
    PT_CHECK(static_cast<int>(vals.size()) == p_);
    PerRank<T> out(p_, T{});
    T acc{};
    for (int r = 0; r < p_; ++r) {
      out[r] = acc;
      acc = acc + vals[r];
    }
    chargeCollective(sizeof(T));
    return out;
  }

  /// Broadcast a single value. The value is by construction rank 0's (the
  /// caller holds one copy, not a per-rank array), so any other root would
  /// silently get wrong-rank semantics — hence the hard check. Use
  /// bcastFrom for a genuine root != 0 broadcast.
  /// Cost: log2(p) messages of the payload size.
  template <typename T>
  PerRank<T> bcast(const T& val, int root = 0) {
    PT_CHECK_MSG(root == 0,
                 "bcast(value, root) broadcasts the caller's single copy, "
                 "which is rank 0's value; use bcastFrom for root != 0");
    chargeCollective(sizeof(T));
    return PerRank<T>(p_, val);
  }

  /// Broadcast from an arbitrary root: every rank receives vals[root].
  /// Cost: log2(p) messages of the payload size.
  template <typename T>
  PerRank<T> bcastFrom(const PerRank<T>& vals, int root) {
    PT_CHECK(static_cast<int>(vals.size()) == p_);
    PT_CHECK_MSG(root >= 0 && root < p_, "bcast root out of range");
    chargeCollective(sizeof(T));
    return PerRank<T>(p_, vals[root]);
  }

  /// Allgather of one item per rank. NOTE: O(p) result per rank — the
  /// storage/communication cost the paper's k-way scheme avoids; cost is
  /// charged accordingly (p * bytes at the bandwidth term).
  template <typename T>
  std::vector<T> allgather(const PerRank<T>& vals) {
    PT_CHECK(static_cast<int>(vals.size()) == p_);
    const double bytes = sizeof(T) * static_cast<double>(p_);
    const double t =
        time() + machine_.alpha * ceilLog2(p_) + machine_.beta * bytes;
    setAll(t);
    collectiveEvent();
    stats_.bytes += bytes * p_;
    return vals;
  }

  // ---- Point-to-point batch exchanges -----------------------------------

  enum class ExchangeAlgo {
    kDenseAlltoall,  ///< MPI_Alltoall to learn counts, then sends (old code)
    kNbx             ///< Hoefler et al. NBX sparse exchange (new code)
  };

  /// Sparse personalized exchange: each rank sends byte payloads to a sparse
  /// set of destinations. Returns, per destination rank, the list of
  /// (source, payload) sorted by source. Data movement is identical for
  /// both algorithms; only cost differs — that is precisely the paper's
  /// Sec II-C3c finding. Blocking = exchangeStart immediately followed by
  /// exchangeFinish; the charged cost is identical by construction.
  template <typename T>
  SparseSends<T> sparseExchange(const SparseSends<T>& sends,
                                ExchangeAlgo algo = ExchangeAlgo::kNbx) {
    ExchangeHandle<T> h = exchangeStart(sends, algo);
    return exchangeFinish(h);
  }

  /// Post a sparse exchange without blocking the virtual clocks: payloads
  /// are delivered into the handle, the completion time of the slowest rank
  /// is recorded, and NO clock advances yet. Compute charged between start
  /// and finish overlaps the exchange. The matching exchangeFinish is
  /// mandatory (it carries the collective event the blocking call had).
  template <typename T>
  ExchangeHandle<T> exchangeStart(const SparseSends<T>& sends,
                                  ExchangeAlgo algo = ExchangeAlgo::kNbx) {
    PT_CHECK(static_cast<int>(sends.size()) == p_);
    ExchangeHandle<T> h;
    h.recv_.resize(p_);
    PerRank<double> sendBytes(p_, 0), recvBytes(p_, 0);
    PerRank<long> nDest(p_, 0), nSrc(p_, 0);
    for (int src = 0; src < p_; ++src) {
      nDest[src] = static_cast<long>(sends[src].size());
      for (const auto& [dst, payload] : sends[src]) {
        PT_CHECK(dst >= 0 && dst < p_);
        const double b = sizeof(T) * static_cast<double>(payload.size());
        sendBytes[src] += b;
        recvBytes[dst] += b;
        ++nSrc[dst];
        h.recv_[dst].emplace_back(src, payload);
        ++stats_.messages;
        stats_.bytes += b;
      }
    }
    for (auto& lst : h.recv_)
      std::sort(lst.begin(), lst.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
    // Cost model. Charged per rank from its sparse endpoint lists — the
    // alpha term counts that rank's actual send and receive partners
    // (never a dense p-wide setup; only kDenseAlltoall pays Omega(p)).
    const double t0 = time();
    double tmax = t0;
    for (int r = 0; r < p_; ++r) {
      double t = t0;
      if (algo == ExchangeAlgo::kDenseAlltoall) {
        // Populate an O(p) count array, then a dense collective that
        // touches every rank's message slot (Omega(p) latency) and suffers
        // congestion on the payload.
        t += machine_.perRankSetup * p_;
        t += machine_.alpha * (p_ / 8.0) * machine_.alltoallSaturation(p_) +
             machine_.beta * sizeof(int) * p_ * machine_.alltoallCongestion;
        t += machine_.alpha * (nDest[r] + nSrc[r]) +
             machine_.beta * (sendBytes[r] + recvBytes[r]) *
                 machine_.alltoallCongestion;
      } else {
        // NBX: nonblocking sends to nDest partners, matching probes for the
        // nSrc inbound messages, plus the 2 log p Ibarrier consensus; no
        // Omega(p) primitive anywhere.
        t += machine_.alpha * (nDest[r] + nSrc[r] + 2.0 * ceilLog2(p_)) +
             machine_.beta * (sendBytes[r] + recvBytes[r]);
      }
      tmax = std::max(tmax, t);
    }
    h.startTime_ = t0;
    h.readyTime_ = tmax;
    h.open_ = true;
    ++stats_.splitExchanges;
    return h;
  }

  /// Complete a posted exchange: every rank waits for the exchange AND for
  /// the slowest compute charged since the start, i.e. the epoch costs
  /// max(comm, compute) rather than their sum. Fires the collective event
  /// the blocking exchange would have fired (fault countdown included).
  template <typename T>
  SparseSends<T> exchangeFinish(ExchangeHandle<T>& h) {
    PT_CHECK_MSG(h.open_, "exchangeFinish on a non-open handle");
    h.open_ = false;
    const double tNow = time();
    stats_.overlapHidden +=
        std::max(0.0, std::min(tNow, h.readyTime_) - h.startTime_);
    setAll(std::max(tNow, h.readyTime_));  // completes collectively
    collectiveEvent();
    return std::move(h.recv_);
  }

  /// Charges the cost of a personalized all-to-all with the given per-rank
  /// send/receive byte counts, without moving data (used by the sparse-send
  /// data paths of the distributed sort, which would otherwise need a dense
  /// p x p buffer matrix).
  void chargeAlltoallv(const PerRank<double>& sendBytes,
                       const PerRank<double>& recvBytes, bool staged,
                       int k = 128) {
    const double t0 = time();
    double tmax = t0;
    if (staged) {
      const int stages = std::max(1, ceilLogK(p_, k));
      for (int r = 0; r < p_; ++r) {
        const double vol = sendBytes[r] + recvBytes[r];
        tmax = std::max(tmax, t0 + stages * (machine_.alpha *
                                                 std::min<long>(k, p_) +
                                             machine_.beta * vol));
      }
    } else {
      for (int r = 0; r < p_; ++r) {
        tmax = std::max(
            tmax, t0 + machine_.perRankSetup * p_ +
                      machine_.alpha * p_ * machine_.alltoallSaturation(p_) +
                      machine_.beta * (sendBytes[r] + recvBytes[r]) *
                          machine_.alltoallCongestion);
      }
    }
    setAll(tmax);
    collectiveEvent();
  }

  /// Dense alltoallv: sendTo[src][dst] is the payload from src to dst
  /// (empty vectors allowed). Returns recv[dst] = concatenation over src in
  /// rank order. If `staged`, the exchange is routed through the k-way
  /// hierarchy (log_k(p) stages), the paper's defense against congestion.
  template <typename T>
  PerRank<std::vector<T>> alltoallv(
      const PerRank<std::vector<std::vector<T>>>& sendTo, bool staged,
      int k = 128) {
    PT_CHECK(static_cast<int>(sendTo.size()) == p_);
    PerRank<std::vector<T>> recv(p_);
    PerRank<double> sendBytes(p_, 0), recvBytes(p_, 0);
    for (int src = 0; src < p_; ++src) {
      PT_CHECK(static_cast<int>(sendTo[src].size()) == p_);
      for (int dst = 0; dst < p_; ++dst) {
        const auto& payload = sendTo[src][dst];
        if (payload.empty() && src != dst) continue;
        const double b = sizeof(T) * static_cast<double>(payload.size());
        sendBytes[src] += b;
        recvBytes[dst] += b;
        if (!payload.empty()) {
          stats_.messages += (src == dst) ? 0 : 1;
          stats_.bytes += (src == dst) ? 0 : b;
        }
      }
    }
    for (int dst = 0; dst < p_; ++dst)
      for (int src = 0; src < p_; ++src)
        recv[dst].insert(recv[dst].end(), sendTo[src][dst].begin(),
                         sendTo[src][dst].end());
    const double t0 = time();
    double tmax = t0;
    if (staged) {
      const int stages = std::max(1, ceilLogK(p_, k));
      for (int r = 0; r < p_; ++r) {
        // Each stage forwards the rank's whole in-flight volume to at most
        // k partners.
        const double vol = sendBytes[r] + recvBytes[r];
        double t = t0 + stages * (machine_.alpha * std::min<long>(k, p_) +
                                  machine_.beta * vol);
        tmax = std::max(tmax, t);
      }
    } else {
      for (int r = 0; r < p_; ++r) {
        double t = t0 + machine_.perRankSetup * p_ + machine_.alpha * p_ +
                   machine_.beta * (sendBytes[r] + recvBytes[r]) *
                       machine_.alltoallCongestion;
        tmax = std::max(tmax, t);
      }
    }
    setAll(tmax);
    collectiveEvent();
    return recv;
  }

  // ---- Memoized communicator hierarchy (Sec II-C3b) ----------------------

  /// Returns the k-way hierarchy for this communicator, splitting (and
  /// charging the split cost) only on the first request per k. Subsequent
  /// calls are served from the MPI-attribute-style cache.
  const KwayHierarchy& kwayHierarchy(int k) {
    auto it = cache_.find(k);
    if (it != cache_.end()) {
      ++stats_.commSplitHits;
      return it->second;
    }
    KwayHierarchy h;
    h.k = k;
    long g = p_;
    while (g > k) {
      h.groupSize.push_back(g);
      // MPI_Comm_split is a global operation with an O(p log p)-ish sort of
      // (color,key) pairs under the hood; charge latency + linear term.
      barrier(machine_.alpha * ceilLog2(p_) + machine_.perRankSetup * p_);
      ++stats_.commSplits;
      g = (g + k - 1) / k;
    }
    h.groupSize.push_back(g);
    auto [pos, inserted] = cache_.emplace(k, std::move(h));
    PT_CHECK(inserted);
    return pos->second;
  }

  // ---- Fault injection (tests only) --------------------------------------

  /// Arms the fault hook: after `afterCollectives` further collective
  /// operations complete, the next one throws RankKilled(rank). Collectives
  /// are the natural kill points of the bulk-synchronous model — every rank
  /// reaches them together, so a death there is where a real job aborts.
  /// The hook fires once and disarms itself.
  void scheduleRankFailure(int rank, long afterCollectives) {
    PT_CHECK(rank >= 0 && rank < p_);
    PT_CHECK(afterCollectives >= 0);
    faultRank_ = rank;
    faultCountdown_ = afterCollectives;
    faultArmed_ = true;
  }
  void cancelScheduledFailure() { faultArmed_ = false; }
  bool failureArmed() const { return faultArmed_; }

 private:
  void setAll(double t) { std::fill(clock_.begin(), clock_.end(), t); }

  /// Every collective funnels through here: accounting plus the armed
  /// fault countdown.
  void collectiveEvent() {
    ++stats_.collectives;
    if (!faultArmed_) return;
    if (faultCountdown_-- > 0) return;
    faultArmed_ = false;
    throw RankKilled(faultRank_, stats_.collectives);
  }

  void chargeCollective(double bytes) {
    const double t = time() + 2.0 * ceilLog2(p_) *
                                  (machine_.alpha + machine_.beta * bytes);
    setAll(t);
    collectiveEvent();
  }

  int p_;
  Machine machine_;
  std::vector<double> clock_;
  CommStats stats_;
  std::map<int, KwayHierarchy> cache_;
  bool faultArmed_ = false;
  int faultRank_ = 0;
  long faultCountdown_ = 0;
};

}  // namespace pt::sim
