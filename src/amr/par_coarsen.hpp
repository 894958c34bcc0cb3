// Algorithm 7 of the paper: PARCOARSEN — distributed multi-level coarsening.
//
// Structure (Sec II-C1c, "option three"):
//  1. Each rank runs a *tentative* local coarsening pass (Algorithm 6
//     without the full-coverage requirement): local consensus that may not
//     be global, and coarse octants may be duplicated across ranks.
//  2. Ranks exchange the head and tail of their tentative outputs with
//     their neighbors. If a coarse octant at one partition endpoint overlaps
//     inputs on the neighboring rank, the overlapped *inputs* are
//     repartitioned toward the coarsest contender of the conflict.
//  3. After repartitioning, coarsening finishes independently per rank with
//     the exact (full-coverage) pass.
//
// The rare case of a tentative octant spanning several remote partitions is
// handled by iterating the endpoint exchange (the paper sketches this as a
// distributed exponential search); each round moves conflicted inputs one
// rank closer to the coarsest contender.
#pragma once

#include <utility>
#include <vector>

#include "amr/coarsen.hpp"
#include "octree/octant.hpp"
#include "octree/tree.hpp"
#include "sim/comm.hpp"
#include "support/check.hpp"

namespace pt {

namespace detail {

template <int DIM>
struct OctWithLevel {
  Octant<DIM> oct;
  Level accept;  ///< coarsest acceptable level for this leaf
};

template <int DIM>
std::vector<std::uint32_t> packItems(
    const std::vector<OctWithLevel<DIM>>& items) {
  std::vector<std::uint32_t> buf;
  buf.reserve(items.size() * (DIM + 2));
  for (const auto& it : items) {
    for (int d = 0; d < DIM; ++d) buf.push_back(it.oct.x[d]);
    buf.push_back(it.oct.level);
    buf.push_back(it.accept);
  }
  return buf;
}

template <int DIM>
OctList<DIM> octsOf(const std::vector<OctWithLevel<DIM>>& items) {
  OctList<DIM> o(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) o[i] = items[i].oct;
  return o;
}

template <int DIM>
std::vector<Level> levelsOf(const std::vector<OctWithLevel<DIM>>& items) {
  std::vector<Level> l(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) l[i] = items[i].accept;
  return l;
}

}  // namespace detail

/// Distributed multi-level coarsening (Algorithm 7). `in[r]`/`levels[r]` are
/// rank r's leaves (globally linear across ranks) and their coarsest
/// acceptable levels. Returns per-rank coarsened output; the concatenation
/// equals serial COARSEN of the concatenated input (tested property).
template <int DIM>
sim::PerRank<OctList<DIM>> parCoarsen(
    sim::SimComm& comm, const sim::PerRank<OctList<DIM>>& in,
    const sim::PerRank<std::vector<Level>>& levels) {
  const int p = comm.size();
  PT_CHECK(static_cast<int>(in.size()) == p &&
           static_cast<int>(levels.size()) == p);
  using Item = detail::OctWithLevel<DIM>;
  sim::PerRank<std::vector<Item>> items(p);
  for (int r = 0; r < p; ++r) {
    PT_CHECK(in[r].size() == levels[r].size());
    items[r].resize(in[r].size());
    for (std::size_t i = 0; i < in[r].size(); ++i)
      items[r][i] = {in[r][i], levels[r][i]};
  }

  for (int round = 0;; ++round) {
    PT_CHECK_MSG(round < 64, "parCoarsen conflict resolution diverged");
    // First (tentative) coarsening pass per rank.
    sim::PerRank<OctList<DIM>> tentative(p);
    for (int r = 0; r < p; ++r) {
      tentative[r] = coarsen(detail::octsOf(items[r]),
                             detail::levelsOf(items[r]),
                             /*requireFullCoverage=*/false);
      comm.chargeWork(r, 12.0 * static_cast<double>(items[r].size()));
    }
    // Exchange tentative head/tail octants at partition endpoints (one
    // send_recv pair with each neighbor).
    comm.barrier(comm.machine().alpha * 4 +
                 comm.machine().beta * 4 * sizeof(Octant<DIM>));
    // Detect conflicts between consecutive nonempty ranks and repartition
    // overlapped inputs toward the coarsest contender.
    std::vector<int> nonempty;
    for (int r = 0; r < p; ++r)
      if (!tentative[r].empty()) nonempty.push_back(r);
    sim::SparseSends<std::uint32_t> sends(p);
    std::vector<std::vector<Item>> moveToFront(p), moveToBack(p);
    bool anyMove = false;
    for (std::size_t i = 1; i < nonempty.size(); ++i) {
      const int a = nonempty[i - 1], b = nonempty[i];
      const Octant<DIM>& tailA = tentative[a].back();
      const Octant<DIM>& headB = tentative[b].front();
      if (!overlaps(tailA, headB)) continue;
      if (tailA.level <= headB.level) {
        // a holds the coarsest contender: move b's inputs overlapped by
        // tailA to a (they form a prefix of b's items).
        std::vector<Item> moved;
        std::size_t cut = 0;
        while (cut < items[b].size() && tailA.isAncestorOf(items[b][cut].oct))
          ++cut;
        if (cut == 0) continue;
        moved.assign(items[b].begin(), items[b].begin() + cut);
        items[b].erase(items[b].begin(), items[b].begin() + cut);
        sends[b].emplace_back(a, detail::packItems<DIM>(moved));
        moveToBack[a].insert(moveToBack[a].end(), moved.begin(), moved.end());
        anyMove = true;
      } else {
        // b holds the coarsest contender: move a's inputs overlapped by
        // headB to b (a suffix of a's items).
        std::size_t cut = items[a].size();
        while (cut > 0 && headB.isAncestorOf(items[a][cut - 1].oct)) --cut;
        if (cut == items[a].size()) continue;
        std::vector<Item> moved(items[a].begin() + cut, items[a].end());
        items[a].resize(cut);
        sends[a].emplace_back(b, detail::packItems<DIM>(moved));
        moveToFront[b].insert(moveToFront[b].begin(), moved.begin(),
                              moved.end());
        anyMove = true;
      }
    }
    // Charge the repartition traffic (data already moved above).
    comm.sparseExchange(sends, sim::SimComm::ExchangeAlgo::kNbx);
    for (int r = 0; r < p; ++r) {
      if (!moveToFront[r].empty())
        items[r].insert(items[r].begin(), moveToFront[r].begin(),
                        moveToFront[r].end());
      if (!moveToBack[r].empty())
        items[r].insert(items[r].end(), moveToBack[r].begin(),
                        moveToBack[r].end());
    }
    if (!anyMove) break;
  }

  // Second (exact) coarsening pass on the repartitioned inputs.
  sim::PerRank<OctList<DIM>> out(p);
  for (int r = 0; r < p; ++r) {
    out[r] = coarsen(detail::octsOf(items[r]), detail::levelsOf(items[r]),
                     /*requireFullCoverage=*/true);
    comm.chargeWork(r, 12.0 * static_cast<double>(items[r].size()));
  }
  return out;
}

}  // namespace pt
