// 2:1 balancing of linearized octrees, serial and distributed.
//
// A leaf set is 2:1 balanced when no leaf neighbors (across faces, edges or
// corners) a leaf more than one level coarser. We restore the condition by
// ripple refinement: locate each leaf's same-level neighbors, request
// refinement of any containing leaf that is too coarse, and apply the
// requests with the multi-level REFINE (Algorithm 5) until a fixed point.
// Each round looks up only what can still change (DESIGN.md §11):
//  - round k >= 1 examines only the leaves round k-1 created. Balance only
//    refines, so a leaf whose constraints were met stays satisfied;
//  - a leaf asks one lookup per parent-neighbour region (2^DIM - 1 of them).
//    Its neighbours inside its parent lie in leaves at least as fine as it,
//    and all its neighbours in one region outside the parent resolve to the
//    same too-coarse leaf or to none.
// In the distributed setting, queries whose anchor falls outside the local
// partition are routed to the owner rank with the NBX sparse exchange — the
// one-directional query pattern means no replies are needed: the owner of
// the too-coarse leaf refines it locally.
#pragma once

#include <array>
#include <vector>

#include "amr/refine.hpp"
#include "octree/distributed.hpp"
#include "octree/octant.hpp"
#include "octree/tree.hpp"
#include "sim/comm.hpp"

namespace pt {

/// True if `leaves` (linearized) satisfies the 2:1 condition.
template <int DIM>
bool isBalanced(const OctList<DIM>& leaves) {
  OctList<DIM> nbrs;
  for (const auto& leaf : leaves) {
    if (leaf.level <= 1) continue;
    nbrs.clear();
    appendNeighbors(leaf, nbrs);
    for (const auto& n : nbrs) {
      const std::int64_t idx = locatePoint(leaves, n.x);
      if (idx < 0) continue;  // void region
      if (leaves[idx].level + 1 < leaf.level) return false;
    }
  }
  return true;
}

namespace detail {

template <int DIM>
struct BalanceQuery {
  std::array<std::uint32_t, DIM> point;
  Level required;
};

template <int DIM>
std::vector<std::uint32_t> packQueries(
    const std::vector<BalanceQuery<DIM>>& qs) {
  std::vector<std::uint32_t> buf;
  buf.reserve(qs.size() * (DIM + 1));
  for (const auto& q : qs) {
    for (int d = 0; d < DIM; ++d) buf.push_back(q.point[d]);
    buf.push_back(q.required);
  }
  return buf;
}

template <int DIM>
std::vector<BalanceQuery<DIM>> unpackQueries(
    const std::vector<std::uint32_t>& buf) {
  std::vector<BalanceQuery<DIM>> qs(buf.size() / (DIM + 1));
  for (std::size_t i = 0; i < qs.size(); ++i) {
    for (int d = 0; d < DIM; ++d) qs[i].point[d] = buf[i * (DIM + 1) + d];
    qs[i].required = static_cast<Level>(buf[i * (DIM + 1) + DIM]);
  }
  return qs;
}

}  // namespace detail

/// Distributed 2:1 balance over a DistTree. Preserves global linearity and
/// the partition boundaries (repartition separately if load balance is
/// needed — the paper treats load balancing as a separate step). Keeps the
/// input's void structure: only existing leaves are subdivided.
template <int DIM>
void balanceDistTree(DistTree<DIM>& dt) {
  sim::SimComm& comm = dt.comm();
  const int p = comm.size();
  // Leaves that may still post a constraint: all of them in round 0, then
  // the leaves the previous round's refine created.
  sim::PerRank<std::vector<char>> fresh(p);
  for (int r = 0; r < p; ++r) fresh[r].assign(dt.localOf(r).size(), 1);
  bool globalChanged = true;
  while (globalChanged) {
    const Splitters<DIM> spl = dt.splitters();
    // Per rank: desired levels for local leaves + outgoing remote queries.
    sim::PerRank<std::vector<Level>> want(p);
    sim::SparseSends<std::uint32_t> sends(p);
    sim::forEachRank(p, [&](int r, bool) {
      const OctList<DIM>& leaves = dt.localOf(r);
      want[r].resize(leaves.size());
      for (std::size_t i = 0; i < leaves.size(); ++i)
        want[r][i] = leaves[i].level;
      std::vector<std::vector<detail::BalanceQuery<DIM>>> outQ(p);
      std::size_t lookups = 0;
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        if (!fresh[r][i]) continue;
        const Octant<DIM>& leaf = leaves[i];
        const Level need = static_cast<Level>(leaf.level - 1);
        const int side = leaf.childIndex();
        // One same-level neighbour per parent-neighbour region m (the
        // parent shifted towards the leaf's side in the dimensions of m).
        for (int m = 1; m < kNumChildren<DIM>; ++m) {
          std::array<std::uint32_t, DIM> q = leaf.x;
          bool inDomain = true;
          for (int d = 0; d < DIM; ++d) {
            if (!((m >> d) & 1)) continue;
            // Unsigned: a step below 0 wraps past kMaxCoord.
            q[d] = ((side >> d) & 1) ? q[d] + leaf.size() : q[d] - leaf.size();
            inDomain = inDomain && q[d] < kMaxCoord;
          }
          const int owner = inDomain ? spl.ownerOfPoint(q) : -1;
          if (owner < 0) continue;
          ++lookups;
          if (owner == r) {
            const std::int64_t idx = locatePoint(leaves, q);
            if (idx >= 0 && want[r][idx] < need) want[r][idx] = need;
          } else {
            outQ[owner].push_back({q, need});
          }
        }
      }
      comm.chargeWork(r, 30.0 * lookups);
      for (int dst = 0; dst < p; ++dst)
        if (!outQ[dst].empty())
          sends[r].emplace_back(dst, detail::packQueries<DIM>(outQ[dst]));
    });
    auto recv = comm.sparseExchange(sends, sim::SimComm::ExchangeAlgo::kNbx);
    // Apply remote and local requests, refine, and mark the new leaves.
    sim::PerRank<int> changed(p, 0);
    sim::forEachRank(p, [&](int r, bool) {
      OctList<DIM>& leaves = dt.localOf(r);
      for (const auto& [src, buf] : recv[r]) {
        (void)src;
        for (const auto& q : detail::unpackQueries<DIM>(buf)) {
          const std::int64_t idx = locatePoint(leaves, q.point);
          if (idx >= 0 && want[r][idx] < q.required) want[r][idx] = q.required;
        }
      }
      bool any = false;
      for (std::size_t i = 0; i < leaves.size(); ++i)
        any = any || (want[r][i] > leaves[i].level);
      if (any) {
        std::vector<std::uint32_t> srcOf;
        OctList<DIM> out = refine(leaves, std::move(want[r]), &srcOf);
        fresh[r].resize(out.size());
        for (std::size_t i = 0; i < out.size(); ++i)
          fresh[r][i] = out[i].level > leaves[srcOf[i]].level;
        leaves = std::move(out);
        changed[r] = 1;
      } else {
        fresh[r].assign(leaves.size(), 0);
      }
      comm.chargeWork(r, 10.0 * leaves.size());
    });
    globalChanged = comm.allreduceMax(changed) != 0;
  }
}

/// Serial 2:1 balance: balanceDistTree on one simulated rank.
template <int DIM>
OctList<DIM> balanceTree(const OctList<DIM>& leaves) {
  sim::SimComm comm(1, sim::Machine::loopback());
  DistTree<DIM> dt = DistTree<DIM>::fromGlobal(comm, leaves);
  balanceDistTree(dt);
  return std::move(dt.localOf(0));
}

}  // namespace pt
