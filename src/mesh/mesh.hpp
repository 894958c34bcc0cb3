// Distributed continuous-Galerkin mesh over a 2:1-balanced octree.
//
// Node enumeration follows the paper's "outsourcing" pattern (Sec II-C3c):
// candidate nodes (element corner vertices plus the parent-corner supports
// of hanging corners) are sorted globally with the distributed k-way sort,
// deduplicated and assigned owners on remote processes, and sent back to the
// originating elements via the NBX sparse exchange. Hanging corners are
// detected with incident-cell point location (with 2:1 balance, the leaves
// incident to a vertex differ by at most one level, so a vertex is hanging
// iff some incident leaf is coarser and does not have it as a corner), and
// are interpolated from the corners of the element's parent — the standard
// linear-element octree construction.
//
// Fields are stored per-rank with one value per *local node* (owned and
// ghost copies alike); ghostRead / accumulate / insert reproduce the
// GhostRead/GhostWrite (ADD_VALUES / INSERT_VALUES) semantics of the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "mesh/nodekey.hpp"
#include "octree/balance.hpp"
#include "octree/distributed.hpp"
#include "octree/octant.hpp"
#include "octree/tree.hpp"
#include "sim/comm.hpp"
#include "sim/sort.hpp"
#include "support/check.hpp"
#include "support/types.hpp"

namespace pt {

/// One weighted reference to a local node; a non-hanging corner has exactly
/// one with weight 1, a hanging corner two (edge) or four (face) supports.
struct NodeSupport {
  std::int32_t node;  ///< local node index
  Real weight;
};

/// Elements per MATVEC batch: sized so one gathered dof-major panel
/// (kCorners * kMatvecBatch * ndof doubles) plus its result panel stay
/// L1-resident for the common 3D ndof <= 5 operators.
inline constexpr std::uint32_t kMatvecBatch = 32;

/// A contiguous run of pure elements (indices into ElemPlan::pureElems)
/// sharing one octree level, i.e. one element size h — so a single
/// precomputed elemental matrix applies to the whole batch.
struct ElemPlanBatch {
  std::uint32_t begin = 0, end = 0;  ///< range in ElemPlan::pureElems
  Level level = 0;
};

/// Precomputed traversal plan for the MATVEC engine (built once per
/// RankMesh at mesh construction; meshes are immutable, so a remesh
/// rebuilds the plan with the new RankMesh). Every RankMesh comes from
/// Mesh::build, so every RankMesh has its plan and readers index it
/// without a size check.
///
/// Elements are split into a *pure* set — every corner has exactly one
/// support with weight 1, so gather/scatter are direct indexed copies with
/// no weight multiplies — and a *hanging* set that keeps the weighted
/// support walk. The vast majority of elements are pure (hanging corners
/// only appear along refinement-level transitions), so the fast path
/// dominates. Pure elements are additionally ordered by (level, element
/// index) and grouped into cache-sized batches of uniform level for the
/// batched GEMM apply path.
struct ElemPlan {
  std::vector<char> isPure;              ///< per element
  std::vector<std::uint32_t> slot;       ///< per pure element: index into
                                         ///< pureElems (0 when hanging)
  std::vector<std::uint32_t> pureElems;  ///< sorted by (level, elem index)
  std::vector<std::uint32_t> pureNodes;  ///< kCorners node ids per pure slot
  /// Transposed (struct-of-arrays) copy of pureNodes, blocked per batch:
  /// batch b's block starts at batches[b].begin * kCorners and holds
  /// kCorners runs of m = end - begin indices, run j listing local corner j
  /// of every element in the batch. This is the unit-stride gather order of
  /// the SIMD panel kernels (fem/simd.hpp); pureNodes keeps the
  /// element-major order the scatter and per-element paths use.
  std::vector<std::uint32_t> pureNodesT;
  std::vector<std::uint32_t> hangingElems;  ///< ascending element index
  std::vector<ElemPlanBatch> batches;       ///< cover pureElems exactly

  /// Boundary elements, over pure + hanging, for the overlap charge
  /// (DESIGN.md §15): an element is *boundary* when any corner support is a
  /// node that more than one rank holds (RankMesh::nodeSharers). Interior
  /// elements write no such node, so their work can be charged while the
  /// accumulate exchange is in flight.
  std::size_t nBoundaryElems = 0;

  std::size_t nPure() const { return pureElems.size(); }
  std::size_t nHanging() const { return hangingElems.size(); }
};

/// The per-rank portion of a distributed mesh.
template <int DIM>
struct RankMesh {
  OctList<DIM> elems;

  std::vector<NodeKey<DIM>> nodeKeys;  ///< sorted (lexicographic)
  std::vector<GlobalIdx> nodeIds;      ///< global ids (contiguous per owner)
  std::vector<Rank> nodeOwner;
  std::vector<std::vector<Rank>> nodeSharers;  ///< sorted, includes self

  /// Corner connectivity: corner (e, c) uses supports
  /// [cornerOffset[e*2^DIM+c], cornerOffset[e*2^DIM+c+1]).
  std::vector<std::uint32_t> cornerOffset;
  std::vector<NodeSupport> supports;
  std::vector<char> cornerIsHanging;

  /// Exchange lists. mirror: for each sharer rank, the local indices of my
  /// *owned* nodes shared with it. ghosts: for each owner rank, the local
  /// indices of my *ghost* (non-owned) nodes it owns. Both are key-sorted so
  /// the two sides align element-wise.
  std::vector<std::pair<Rank, std::vector<std::int32_t>>> mirror;
  std::vector<std::pair<Rank, std::vector<std::int32_t>>> ghosts;

  /// MATVEC traversal plan (pure/hanging split + batches); see ElemPlan.
  ElemPlan plan;

  std::size_t nNodes() const { return nodeKeys.size(); }
  std::size_t nElems() const { return elems.size(); }

  std::int32_t findNode(const NodeKey<DIM>& k) const {
    auto it = std::lower_bound(nodeKeys.begin(), nodeKeys.end(), k,
                               NodeKeyLess<DIM>{});
    PT_CHECK(it != nodeKeys.end() && *it == k);
    return static_cast<std::int32_t>(it - nodeKeys.begin());
  }
};

/// A nodal field: per rank, nLocalNodes * ndof values (node-major, i.e.
/// value of dof j at node i lives at i*ndof + j — the strided layout the
/// paper's zip/unzip assembly machinery is built around).
using Field = sim::PerRank<std::vector<Real>>;

template <int DIM>
class Mesh {
 public:
  static constexpr int kCorners = kNumChildren<DIM>;

  /// Builds the distributed mesh. The tree must be 2:1 balanced.
  static Mesh build(sim::SimComm& comm, const DistTree<DIM>& tree);

  sim::SimComm& comm() const { return *comm_; }
  int nRanks() const { return comm_->size(); }
  RankMesh<DIM>& rank(int r) { return ranks_[r]; }
  const RankMesh<DIM>& rank(int r) const { return ranks_[r]; }
  GlobalIdx globalNodeCount() const { return globalNodes_; }
  std::size_t globalElemCount() const {
    std::size_t n = 0;
    for (const auto& rm : ranks_) n += rm.nElems();
    return n;
  }

  /// Allocates a zero field with `ndof` components per node.
  Field makeField(int ndof = 1) const {
    Field f(nRanks());
    for (int r = 0; r < nRanks(); ++r)
      f[r].assign(ranks_[r].nNodes() * ndof, 0.0);
    return f;
  }

  // ---- Ghost exchange (paper: GhostRead / GhostWrite) --------------------

  /// Owner -> sharers: every ghost copy receives the owner's value.
  void ghostRead(Field& f, int ndof = 1) const;

  /// ADD_VALUES: partial sums on sharers are accumulated at the owner and
  /// redistributed, leaving a consistent field. Blocking: accumulateStart
  /// immediately followed by accumulateFinish.
  void accumulate(Field& f, int ndof = 1) const;

  // Split-phase accumulate (DESIGN.md §15). Start posts the exchange
  // without advancing the virtual clocks; compute charged before the
  // matching finish overlaps the exchange latency. With no work charged in
  // between, the split path is cost- and bitwise-identical to accumulate.

  /// Posts the ghosts->owner sends of an accumulate, copying the ghost
  /// (non-owned shared) entries of `f` as they are now; owned entries may
  /// still be written until the matching finish.
  sim::ExchangeHandle<Real> accumulateStart(const Field& f,
                                            int ndof = 1) const;
  /// Owner adds the received partials (in source-rank order, exactly the
  /// blocking path's order) and redistributes via ghostRead.
  void accumulateFinish(sim::ExchangeHandle<Real>& h, Field& f,
                        int ndof = 1) const;

  /// INSERT_VALUES: sharer-side writes (flagged in `written`, one flag per
  /// node) overwrite the owner's value — last writer in rank order wins,
  /// matching the paper's remark that erosion/dilation is order-insensitive
  /// because all writers insert the same value. Ends consistent.
  void insertConsistent(Field& f, sim::PerRank<std::vector<char>>& written,
                        int ndof = 1) const;

  // ---- Reductions over owned nodes ---------------------------------------

  Real dot(const Field& a, const Field& b, int ndof = 1) const;
  Real maxAbs(const Field& a) const;

 private:
  sim::SimComm* comm_ = nullptr;
  std::vector<RankMesh<DIM>> ranks_;
  GlobalIdx globalNodes_ = 0;
};

// ---------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------

namespace meshdetail {

/// (key, requester) record for the numbering sort.
template <int DIM>
struct KeyReq {
  NodeKey<DIM> key;
  std::int32_t rank;
};

template <int DIM>
struct KeyReqLess {
  bool operator()(const KeyReq<DIM>& a, const KeyReq<DIM>& b) const {
    NodeKeyLess<DIM> kl;
    if (kl(a.key, b.key)) return true;
    if (kl(b.key, a.key)) return false;
    return a.rank < b.rank;
  }
};

/// Resolves an incident-cell query against a local leaf list.
/// Returns {found, leafLevel, vIsCorner}.
template <int DIM>
struct CellAnswer {
  bool found = false;
  Level level = 0;
  bool isCorner = false;
};

template <int DIM>
CellAnswer<DIM> answerCellQuery(
    const OctList<DIM>& leaves,
    const std::type_identity_t<std::array<std::uint32_t, DIM>>& q,
    const std::type_identity_t<NodeKey<DIM>>& v) {
  const std::int64_t idx = locatePoint(leaves, q);
  if (idx < 0) return {};
  return {true, leaves[idx].level, isCornerOf<DIM>(v, leaves[idx])};
}

}  // namespace meshdetail

/// Builds the MATVEC traversal plan for one rank (see ElemPlan), after the
/// rank's supports and sharer tables. O(nElems * kCorners); Mesh::build
/// calls it for every rank.
template <int DIM>
void buildElemPlan(RankMesh<DIM>& rm) {
  constexpr int kC = kNumChildren<DIM>;
  ElemPlan& plan = rm.plan;
  const std::size_t n = rm.nElems();
  plan = ElemPlan{};
  plan.isPure.assign(n, 0);
  plan.slot.assign(n, 0);

  for (std::size_t e = 0; e < n; ++e) {
    bool pure = true;
    for (int c = 0; c < kC && pure; ++c) {
      const std::uint32_t lo = rm.cornerOffset[e * kC + c];
      const std::uint32_t hi = rm.cornerOffset[e * kC + c + 1];
      pure = (hi - lo == 1) && (rm.supports[lo].weight == 1.0);
    }
    plan.isPure[e] = pure ? 1 : 0;
    if (!pure)
      plan.hangingElems.push_back(static_cast<std::uint32_t>(e));
  }

  // Pure elements sorted by (level, element index): uniform-level runs give
  // the batched apply one elemental matrix per batch; the secondary index
  // order keeps the traversal cache-friendly within a level.
  plan.pureElems.reserve(n - plan.hangingElems.size());
  for (std::size_t e = 0; e < n; ++e)
    if (plan.isPure[e]) plan.pureElems.push_back(static_cast<std::uint32_t>(e));
  std::stable_sort(plan.pureElems.begin(), plan.pureElems.end(),
                   [&rm](std::uint32_t a, std::uint32_t b) {
                     return rm.elems[a].level < rm.elems[b].level;
                   });

  plan.pureNodes.resize(plan.pureElems.size() * kC);
  for (std::size_t i = 0; i < plan.pureElems.size(); ++i) {
    const std::uint32_t e = plan.pureElems[i];
    plan.slot[e] = static_cast<std::uint32_t>(i);
    for (int c = 0; c < kC; ++c)
      plan.pureNodes[i * kC + c] = static_cast<std::uint32_t>(
          rm.supports[rm.cornerOffset[e * kC + c]].node);
  }

  // Cache-sized batches of uniform level over the sorted pure list.
  std::size_t i = 0;
  while (i < plan.pureElems.size()) {
    const Level lvl = rm.elems[plan.pureElems[i]].level;
    std::size_t j = i;
    while (j < plan.pureElems.size() && j - i < kMatvecBatch &&
           rm.elems[plan.pureElems[j]].level == lvl)
      ++j;
    plan.batches.push_back({static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(j), lvl});
    i = j;
  }

  // Per-batch transposed node map for the SIMD gather (see the field doc).
  plan.pureNodesT.resize(plan.pureNodes.size());
  for (const ElemPlanBatch& b : plan.batches) {
    const std::size_t m = b.end - b.begin;
    std::uint32_t* blockT = &plan.pureNodesT[std::size_t(b.begin) * kC];
    const std::uint32_t* block = &plan.pureNodes[std::size_t(b.begin) * kC];
    for (std::size_t ei = 0; ei < m; ++ei)
      for (int c = 0; c < kC; ++c)
        blockT[std::size_t(c) * m + ei] = block[ei * kC + c];
  }

  // Boundary count (overlap).
  for (std::size_t e = 0; e < n; ++e) {
    const std::uint32_t lo = rm.cornerOffset[e * kC];
    const std::uint32_t hi = rm.cornerOffset[e * kC + kC];
    for (std::uint32_t s = lo; s < hi; ++s)
      if (rm.nodeSharers[rm.supports[s].node].size() > 1) {
        ++plan.nBoundaryElems;
        break;
      }
  }
}

template <int DIM>
Mesh<DIM> Mesh<DIM>::build(sim::SimComm& comm, const DistTree<DIM>& tree) {
  const int p = comm.size();
  Mesh<DIM> mesh;
  mesh.comm_ = &comm;
  mesh.ranks_.resize(p);
  for (int r = 0; r < p; ++r) mesh.ranks_[r].elems = tree.localOf(r);

  const Splitters<DIM> spl = tree.splitters();
  constexpr int kC = kNumChildren<DIM>;

  // ---- Phase 1: hanging detection via incident-cell queries ---------------
  // For every element corner vertex v, inspect the leaf cells incident to v
  // (DESIGN.md §11). Cells inside the element's parent lie in leaves at
  // least as fine as the element and are skipped; the cells in one
  // parent-neighbour region resolve to the same coarser leaf or to none, so
  // v asks one query per region it touches (19 per 3D element, 5 in 2D,
  // exact on any linear tree). Remote cells are resolved by routing (q, v)
  // to the cell owner (one NBX round out, one back).
  sim::PerRank<std::vector<char>> hanging(p);
  struct PendingQuery {
    std::int64_t cornerSlot;  // e * kC + c on the requesting rank
  };
  sim::SparseSends<std::uint32_t> qSends(p);
  sim::PerRank<std::vector<std::vector<PendingQuery>>> pending(p);
  for (int r = 0; r < p; ++r) pending[r].resize(p);

  sim::forEachRank(p, [&](int r, bool) {
    const auto& elems = mesh.ranks_[r].elems;
    hanging[r].assign(elems.size() * kC, 0);
    std::vector<std::vector<std::uint32_t>> qBuf(p);
    std::size_t queries = 0;
    for (std::size_t e = 0; e < elems.size(); ++e) {
      const Octant<DIM>& oct = elems[e];
      const int side = oct.childIndex();
      for (int c = 0; c < kC; ++c) {
        const NodeKey<DIM> v = cornerKey(oct, c);
        // Dimensions in which v lies on the parent's boundary; region m
        // (a nonempty subset) is the parent shifted across them, reached
        // by the incident cell that leaves the element in exactly m.
        const int outer = ~(c ^ side) & (kC - 1);
        for (int m = outer; m > 0; m = (m - 1) & outer) {
          const int inc = c ^ m;
          std::array<std::uint32_t, DIM> q;
          bool valid = true;
          for (int d = 0; d < DIM; ++d) {
            if ((inc >> d) & 1) {
              if (v[d] == 0) {
                valid = false;
                break;
              }
              q[d] = v[d] - 1;
            } else {
              if (v[d] >= kMaxCoord) {
                valid = false;
                break;
              }
              q[d] = v[d];
            }
          }
          if (!valid) continue;
          const int owner = spl.ownerOfPoint(q);
          if (owner < 0) continue;
          ++queries;
          if (owner == r) {
            auto ans = meshdetail::answerCellQuery<DIM>(elems, q, v);
            if (ans.found && ans.level < oct.level && !ans.isCorner)
              hanging[r][e * kC + c] = 1;
          } else {
            for (int d = 0; d < DIM; ++d) qBuf[owner].push_back(q[d]);
            for (int d = 0; d < DIM; ++d) qBuf[owner].push_back(v[d]);
            qBuf[owner].push_back(oct.level);
            pending[r][owner].push_back(
                {static_cast<std::int64_t>(e) * kC + c});
          }
        }
      }
    }
    comm.chargeWork(r, 5.0 * queries);
    for (int dst = 0; dst < p; ++dst)
      if (!qBuf[dst].empty()) qSends[r].emplace_back(dst, std::move(qBuf[dst]));
  });
  auto qRecv = comm.sparseExchange(qSends);
  // Answer remote queries in arrival order; reply payload: one byte-ish
  // word per query: 1 = hanging-evidence (found, coarser, not corner).
  sim::SparseSends<std::uint32_t> aSends(p);
  sim::forEachRank(p, [&](int r, bool) {
    const auto& elems = mesh.ranks_[r].elems;
    for (const auto& [src, buf] : qRecv[r]) {
      const std::size_t nq = buf.size() / (2 * DIM + 1);
      std::vector<std::uint32_t> ans(nq, 0);
      for (std::size_t i = 0; i < nq; ++i) {
        std::array<std::uint32_t, DIM> q;
        NodeKey<DIM> v;
        for (int d = 0; d < DIM; ++d) q[d] = buf[i * (2 * DIM + 1) + d];
        for (int d = 0; d < DIM; ++d) v[d] = buf[i * (2 * DIM + 1) + DIM + d];
        const Level elemLevel =
            static_cast<Level>(buf[i * (2 * DIM + 1) + 2 * DIM]);
        auto a = meshdetail::answerCellQuery<DIM>(elems, q, v);
        ans[i] = (a.found && a.level < elemLevel && !a.isCorner) ? 1u : 0u;
        comm.chargeWork(r, 30.0);
      }
      aSends[r].emplace_back(src, std::move(ans));
    }
  });
  auto aRecv = comm.sparseExchange(aSends);
  for (int r = 0; r < p; ++r) {
    for (const auto& [src, ans] : aRecv[r]) {
      const auto& pend = pending[r][src];
      PT_CHECK(ans.size() == pend.size());
      for (std::size_t i = 0; i < ans.size(); ++i)
        if (ans[i]) hanging[r][pend[i].cornerSlot] = 1;
    }
  }

  // ---- Phase 2: support keys and local node tables -------------------------
  // Entirely rank-local (collect keys, sort/dedup, map supports) — threaded
  // across ranks.
  sim::forEachRank(p, [&](int r, bool) {
    RankMesh<DIM>& rm = mesh.ranks_[r];
    const auto& elems = rm.elems;
    rm.cornerIsHanging = hanging[r];
    // Collect per-corner support keys first (with weights), then dedupe
    // into the node table.
    std::vector<std::vector<std::pair<NodeKey<DIM>, Real>>> cornerSupports(
        elems.size() * kC);
    std::vector<NodeKey<DIM>> keys;
    for (std::size_t e = 0; e < elems.size(); ++e) {
      const Octant<DIM>& oct = elems[e];
      const Octant<DIM> par = oct.parent();
      for (int c = 0; c < kC; ++c) {
        auto& sup = cornerSupports[e * kC + c];
        const NodeKey<DIM> v = cornerKey(oct, c);
        if (!hanging[r][e * kC + c]) {
          sup.emplace_back(v, 1.0);
          keys.push_back(v);
        } else {
          // Bilinear interpolation from the parent's corners evaluated at
          // v; nonzero weights are 1/2 (edge-hanging) or 1/4 (face).
          for (int pc = 0; pc < kC; ++pc) {
            Real w = 1.0;
            const NodeKey<DIM> pk = cornerKey(par, pc);
            for (int d = 0; d < DIM; ++d) {
              const Real t =
                  static_cast<Real>(v[d] - par.x[d]) / par.size();
              w *= ((pc >> d) & 1) ? t : (1.0 - t);
            }
            if (w > 0) {
              sup.emplace_back(pk, w);
              keys.push_back(pk);
            }
          }
        }
      }
      comm.chargeWork(r, 20.0 * kC);
    }
    std::sort(keys.begin(), keys.end(), NodeKeyLess<DIM>{});
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    rm.nodeKeys = std::move(keys);
    // Map supports to local node indices.
    rm.cornerOffset.assign(elems.size() * kC + 1, 0);
    rm.supports.clear();
    for (std::size_t slot = 0; slot < cornerSupports.size(); ++slot) {
      for (const auto& [k, w] : cornerSupports[slot])
        rm.supports.push_back({rm.findNode(k), w});
      rm.cornerOffset[slot + 1] =
          static_cast<std::uint32_t>(rm.supports.size());
    }
  });

  // ---- Phase 3: global dedup / ownership / sharers (outsourcing) ----------
  {
    using KR = meshdetail::KeyReq<DIM>;
    sim::PerRank<std::vector<KR>> recs(p);
    for (int r = 0; r < p; ++r) {
      recs[r].reserve(mesh.ranks_[r].nodeKeys.size());
      for (const auto& k : mesh.ranks_[r].nodeKeys)
        recs[r].push_back({k, r});
    }
    sim::distributedSort(comm, recs, meshdetail::KeyReqLess<DIM>{});
    // Keep key groups on one rank: pull boundary-spanning groups backward.
    for (int r = 0; r + 1 < p; ++r) {
      if (recs[r].empty()) continue;
      for (int q = r + 1; q < p; ++q) {
        while (!recs[q].empty() && recs[q].front().key == recs[r].back().key) {
          recs[r].push_back(recs[q].front());
          recs[q].erase(recs[q].begin());
        }
        if (!recs[q].empty()) break;
      }
    }
    comm.barrier(comm.machine().alpha * 2);
    // For each group, reply (key, sharers...) to every requester.
    sim::SparseSends<std::uint32_t> replies(p);
    for (int r = 0; r < p; ++r) {
      std::vector<std::vector<std::uint32_t>> buf(p);
      std::size_t i = 0;
      while (i < recs[r].size()) {
        std::size_t j = i;
        while (j < recs[r].size() && recs[r][j].key == recs[r][i].key) ++j;
        for (std::size_t a = i; a < j; ++a) {
          auto& out = buf[recs[r][a].rank];
          for (int d = 0; d < DIM; ++d) out.push_back(recs[r][i].key[d]);
          out.push_back(static_cast<std::uint32_t>(j - i));
          for (std::size_t b = i; b < j; ++b)
            out.push_back(static_cast<std::uint32_t>(recs[r][b].rank));
        }
        comm.chargeWork(r, 4.0 * (j - i));
        i = j;
      }
      for (int dst = 0; dst < p; ++dst)
        if (!buf[dst].empty())
          replies[r].emplace_back(dst, std::move(buf[dst]));
    }
    auto rRecv = comm.sparseExchange(replies);
    for (int r = 0; r < p; ++r) {
      RankMesh<DIM>& rm = mesh.ranks_[r];
      rm.nodeOwner.assign(rm.nNodes(), -1);
      rm.nodeSharers.assign(rm.nNodes(), {});
      for (const auto& [src, buf] : rRecv[r]) {
        (void)src;
        std::size_t i = 0;
        while (i < buf.size()) {
          NodeKey<DIM> k;
          for (int d = 0; d < DIM; ++d) k[d] = buf[i + d];
          const std::uint32_t n = buf[i + DIM];
          std::vector<Rank> sharers(n);
          for (std::uint32_t s = 0; s < n; ++s)
            sharers[s] = static_cast<Rank>(buf[i + DIM + 1 + s]);
          const std::int32_t li = rm.findNode(k);
          rm.nodeOwner[li] = sharers.front();  // min rank = owner
          rm.nodeSharers[li] = std::move(sharers);
          i += DIM + 1 + n;
        }
      }
      for (std::size_t li = 0; li < rm.nNodes(); ++li)
        PT_CHECK_MSG(rm.nodeOwner[li] >= 0, "node missing ownership reply");
    }
  }

  // ---- Phase 4: global ids (contiguous per owner) --------------------------
  {
    sim::PerRank<GlobalIdx> ownedCount(p, 0);
    for (int r = 0; r < p; ++r)
      for (std::size_t li = 0; li < mesh.ranks_[r].nNodes(); ++li)
        if (mesh.ranks_[r].nodeOwner[li] == r) ++ownedCount[r];
    auto start = comm.exscan(ownedCount);
    mesh.globalNodes_ = comm.allreduceSum(ownedCount);
    sim::SparseSends<std::uint32_t> idSends(p);
    for (int r = 0; r < p; ++r) {
      RankMesh<DIM>& rm = mesh.ranks_[r];
      rm.nodeIds.assign(rm.nNodes(), kInvalidIdx);
      GlobalIdx next = start[r];
      std::vector<std::vector<std::uint32_t>> buf(p);
      for (std::size_t li = 0; li < rm.nNodes(); ++li) {
        if (rm.nodeOwner[li] != r) continue;
        rm.nodeIds[li] = next++;
        for (Rank s : rm.nodeSharers[li]) {
          if (s == r) continue;
          auto& out = buf[s];
          for (int d = 0; d < DIM; ++d) out.push_back(rm.nodeKeys[li][d]);
          out.push_back(static_cast<std::uint32_t>(rm.nodeIds[li] >> 32));
          out.push_back(static_cast<std::uint32_t>(rm.nodeIds[li]));
        }
      }
      for (int dst = 0; dst < p; ++dst)
        if (!buf[dst].empty())
          idSends[r].emplace_back(dst, std::move(buf[dst]));
    }
    auto idRecv = comm.sparseExchange(idSends);
    for (int r = 0; r < p; ++r) {
      RankMesh<DIM>& rm = mesh.ranks_[r];
      for (const auto& [src, buf] : idRecv[r]) {
        (void)src;
        for (std::size_t i = 0; i < buf.size(); i += DIM + 2) {
          NodeKey<DIM> k;
          for (int d = 0; d < DIM; ++d) k[d] = buf[i + d];
          const GlobalIdx id = (static_cast<GlobalIdx>(buf[i + DIM]) << 32) |
                               buf[i + DIM + 1];
          rm.nodeIds[rm.findNode(k)] = id;
        }
      }
      for (std::size_t li = 0; li < rm.nNodes(); ++li)
        PT_CHECK_MSG(rm.nodeIds[li] != kInvalidIdx, "node missing id");
    }
  }

  // ---- Phase 5: exchange lists ---------------------------------------------
  for (int r = 0; r < p; ++r) {
    RankMesh<DIM>& rm = mesh.ranks_[r];
    std::vector<std::vector<std::int32_t>> mir(p), gho(p);
    for (std::size_t li = 0; li < rm.nNodes(); ++li) {
      if (rm.nodeSharers[li].size() <= 1) continue;
      if (rm.nodeOwner[li] == r) {
        for (Rank s : rm.nodeSharers[li])
          if (s != r) mir[s].push_back(static_cast<std::int32_t>(li));
      } else {
        gho[rm.nodeOwner[li]].push_back(static_cast<std::int32_t>(li));
      }
    }
    for (int q = 0; q < p; ++q) {
      if (!mir[q].empty()) rm.mirror.emplace_back(q, std::move(mir[q]));
      if (!gho[q].empty()) rm.ghosts.emplace_back(q, std::move(gho[q]));
    }
  }

  // ---- Phase 6: MATVEC traversal plans (local, no communication) -----------
  sim::forEachRank(p, [&](int r, bool) {
    buildElemPlan(mesh.ranks_[r]);
    comm.chargeWork(r, 2.0 * kC * mesh.ranks_[r].nElems());
  });
  return mesh;
}

template <int DIM>
void Mesh<DIM>::ghostRead(Field& f, int ndof) const {
  const int p = nRanks();
  sim::SparseSends<Real> sends(p);
  for (int r = 0; r < p; ++r) {
    for (const auto& [sharer, idxs] : ranks_[r].mirror) {
      std::vector<Real> buf;
      buf.reserve(idxs.size() * ndof);
      for (std::int32_t li : idxs)
        for (int d = 0; d < ndof; ++d) buf.push_back(f[r][li * ndof + d]);
      sends[r].emplace_back(sharer, std::move(buf));
    }
    comm_->chargeWork(r, 2.0 * ndof * ranks_[r].mirror.size());
  }
  auto recv = comm_->sparseExchange(sends);
  for (int r = 0; r < p; ++r) {
    for (const auto& [owner, buf] : recv[r]) {
      // Find my ghost list for this owner.
      const auto it = std::find_if(
          ranks_[r].ghosts.begin(), ranks_[r].ghosts.end(),
          [owner = owner](const auto& g) { return g.first == owner; });
      PT_CHECK(it != ranks_[r].ghosts.end());
      const auto& idxs = it->second;
      PT_CHECK(buf.size() == idxs.size() * static_cast<std::size_t>(ndof));
      for (std::size_t i = 0; i < idxs.size(); ++i)
        for (int d = 0; d < ndof; ++d)
          f[r][idxs[i] * ndof + d] = buf[i * ndof + d];
    }
  }
}

template <int DIM>
sim::ExchangeHandle<Real> Mesh<DIM>::accumulateStart(const Field& f,
                                                     int ndof) const {
  const int p = nRanks();
  sim::SparseSends<Real> sends(p);
  for (int r = 0; r < p; ++r) {
    for (const auto& [owner, idxs] : ranks_[r].ghosts) {
      std::vector<Real> buf;
      buf.reserve(idxs.size() * ndof);
      for (std::int32_t li : idxs)
        for (int d = 0; d < ndof; ++d) buf.push_back(f[r][li * ndof + d]);
      sends[r].emplace_back(owner, std::move(buf));
    }
  }
  return comm_->exchangeStart(sends);
}

template <int DIM>
void Mesh<DIM>::accumulateFinish(sim::ExchangeHandle<Real>& h, Field& f,
                                 int ndof) const {
  const int p = nRanks();
  auto recv = comm_->exchangeFinish(h);
  for (int r = 0; r < p; ++r) {
    for (const auto& [sharer, buf] : recv[r]) {
      const auto it = std::find_if(
          ranks_[r].mirror.begin(), ranks_[r].mirror.end(),
          [sharer = sharer](const auto& m) { return m.first == sharer; });
      PT_CHECK(it != ranks_[r].mirror.end());
      const auto& idxs = it->second;
      PT_CHECK(buf.size() == idxs.size() * static_cast<std::size_t>(ndof));
      for (std::size_t i = 0; i < idxs.size(); ++i)
        for (int d = 0; d < ndof; ++d)
          f[r][idxs[i] * ndof + d] += buf[i * ndof + d];
    }
  }
  ghostRead(f, ndof);
}

template <int DIM>
void Mesh<DIM>::accumulate(Field& f, int ndof) const {
  auto h = accumulateStart(f, ndof);
  accumulateFinish(h, f, ndof);
}

template <int DIM>
void Mesh<DIM>::insertConsistent(Field& f,
                                 sim::PerRank<std::vector<char>>& written,
                                 int ndof) const {
  const int p = nRanks();
  sim::SparseSends<Real> sends(p);
  for (int r = 0; r < p; ++r) {
    for (const auto& [owner, idxs] : ranks_[r].ghosts) {
      std::vector<Real> buf;
      for (std::int32_t li : idxs) {
        buf.push_back(written[r][li] ? 1.0 : 0.0);
        for (int d = 0; d < ndof; ++d) buf.push_back(f[r][li * ndof + d]);
      }
      sends[r].emplace_back(owner, std::move(buf));
    }
  }
  auto recv = comm_->sparseExchange(sends);
  for (int r = 0; r < p; ++r) {
    for (const auto& [sharer, buf] : recv[r]) {
      const auto it = std::find_if(
          ranks_[r].mirror.begin(), ranks_[r].mirror.end(),
          [sharer = sharer](const auto& m) { return m.first == sharer; });
      PT_CHECK(it != ranks_[r].mirror.end());
      const auto& idxs = it->second;
      for (std::size_t i = 0; i < idxs.size(); ++i) {
        const bool wrote = buf[i * (ndof + 1)] != 0.0;
        if (!wrote) continue;
        for (int d = 0; d < ndof; ++d)
          f[r][idxs[i] * ndof + d] = buf[i * (ndof + 1) + 1 + d];
        written[r][idxs[i]] = 1;
      }
    }
  }
  ghostRead(f, ndof);
}

template <int DIM>
Real Mesh<DIM>::dot(const Field& a, const Field& b, int ndof) const {
  const int p = nRanks();
  sim::PerRank<Real> part(p, 0.0);
  for (int r = 0; r < p; ++r) {
    const RankMesh<DIM>& rm = ranks_[r];
    for (std::size_t li = 0; li < rm.nNodes(); ++li) {
      if (rm.nodeOwner[li] != r) continue;
      for (int d = 0; d < ndof; ++d)
        part[r] += a[r][li * ndof + d] * b[r][li * ndof + d];
    }
    comm_->chargeWork(r, 2.0 * ndof * rm.nNodes());
  }
  return comm_->allreduceSum(part);
}

template <int DIM>
Real Mesh<DIM>::maxAbs(const Field& a) const {
  const int p = nRanks();
  sim::PerRank<Real> part(p, 0.0);
  for (int r = 0; r < p; ++r)
    for (Real v : a[r]) part[r] = std::max(part[r], std::abs(v));
  return comm_->allreduceMax(part);
}

}  // namespace pt
