// Distributed multi-level inter-grid transfer (paper Sec II-C2).
//
// Two entry points:
//  - transferNodal:      query-based transfer of node-centered data between
//                        two meshes differing by arbitrarily many levels in
//                        both directions at once (the remeshing workhorse:
//                        coarse-to-fine interpolation and fine-to-coarse
//                        injection are both "evaluate the old field at the
//                        new node position").
//  - transferCell*:      cell-centered copy (coarse->fine) and volume-
//                        weighted averaging (fine->coarse); its ⊑ searches
//                        over the partition endpoint tables find the
//                        grid-grid partition overlaps.
#pragma once

#include <algorithm>
#include <vector>

#include "fem/matvec.hpp"
#include "intergrid/overlap.hpp"
#include "mesh/mesh.hpp"
#include "octree/distributed.hpp"
#include "support/check.hpp"

namespace pt::intergrid {

namespace detail {

/// Clamped cell-location point for a node key (vertices on the far domain
/// face belong to the last cell).
template <int DIM>
std::array<std::uint32_t, DIM> cellPointForKey(
    const std::type_identity_t<NodeKey<DIM>>& k) {
  std::array<std::uint32_t, DIM> p;
  for (int d = 0; d < DIM; ++d) p[d] = std::min(k[d], kMaxCoord - 1);
  return p;
}

/// Evaluates the (gathered, hanging-consistent) elemental interpolant of
/// element `e` at integer position `k` (which must lie inside or on the
/// closure of the element). `vals` = kNodes*ndof gathered corner values.
template <int DIM>
void evalInElement(const Octant<DIM>& oct, const Real* vals, int ndof,
                   const std::type_identity_t<NodeKey<DIM>>& k, Real* out) {
  VecN<DIM> xi;
  for (int d = 0; d < DIM; ++d) {
    xi[d] = static_cast<Real>(k[d] - oct.x[d]) / static_cast<Real>(oct.size());
    PT_CHECK(xi[d] >= -1e-12 && xi[d] <= 1.0 + 1e-12);
  }
  constexpr int kC = kNumChildren<DIM>;
  for (int d = 0; d < ndof; ++d) out[d] = 0.0;
  for (int i = 0; i < kC; ++i) {
    const Real N = fem::shape<DIM>(i, xi);
    for (int d = 0; d < ndof; ++d) out[d] += N * vals[i * ndof + d];
  }
}

}  // namespace detail

/// Old-grid routing tables for one remesh epoch: the splitter table (query
/// routing by point owner) and the partition endpoint table (⊑ overlap
/// searches). Both derive from the same per-rank (first, last) octants, so
/// one allgather serves every field transferred against the same old tree —
/// gather once per epoch with gatherTransferTables() and pass to each
/// transferNodal / transferCell call instead of re-charging the collective
/// per field.
template <int DIM>
struct TransferTables {
  Splitters<DIM> spl;
  PartitionEndpoints<DIM> oldEnds;
};

template <int DIM>
TransferTables<DIM> gatherTransferTables(const DistTree<DIM>& oldTree) {
  sim::SimComm& comm = oldTree.comm();
  const int p = comm.size();
  TransferTables<DIM> t;
  t.spl.first.resize(p);
  t.spl.hasData.resize(p);
  for (int r = 0; r < p; ++r) {
    const OctList<DIM>& leaves = oldTree.localOf(r);
    t.spl.hasData[r] = !leaves.empty();
    if (t.spl.hasData[r]) t.spl.first[r] = leaves.front();
  }
  t.oldEnds = PartitionEndpoints<DIM>::fromLocals(
      p, [&](int r) -> const OctList<DIM>& { return oldTree.localOf(r); });
  // One combined (first, last) table gather covers the whole epoch.
  comm.allgather(sim::PerRank<std::array<Octant<DIM>, 2>>(p));
  return t;
}

namespace detail {

/// Charges the per-field splitter allgather and returns local splitters
/// when no epoch tables were passed (the historical per-call path).
template <int DIM>
Splitters<DIM> localSplitters(const Mesh<DIM>& oldMesh) {
  sim::SimComm& comm = oldMesh.comm();
  const int p = comm.size();
  Splitters<DIM> spl;
  spl.first.resize(p);
  spl.hasData.resize(p);
  for (int r = 0; r < p; ++r) {
    spl.hasData[r] = !oldMesh.rank(r).elems.empty();
    if (spl.hasData[r]) spl.first[r] = oldMesh.rank(r).elems.front();
  }
  comm.allgather(sim::PerRank<Octant<DIM>>(p));  // charge the table gather
  return spl;
}

/// Per-destination query batches for every new-mesh node, plus the
/// requester-side record of where each answer lands. Charges the query
/// build (the transferNodal historical charge). Depends only on the two
/// meshes, so one build serves every nodal field of an epoch.
template <int DIM>
struct NodalQueries {
  sim::SparseSends<std::uint32_t> sends;
  sim::PerRank<std::vector<std::vector<std::int32_t>>> pending;
};

template <int DIM>
NodalQueries<DIM> buildNodalQueries(const Mesh<DIM>& newMesh,
                                    const Splitters<DIM>& spl) {
  sim::SimComm& comm = newMesh.comm();
  const int p = comm.size();
  NodalQueries<DIM> q;
  q.sends.resize(p);
  q.pending.resize(p);
  for (int r = 0; r < p; ++r) q.pending[r].resize(p);
  for (int r = 0; r < p; ++r) {
    const RankMesh<DIM>& nrm = newMesh.rank(r);
    std::vector<std::vector<std::uint32_t>> buf(p);
    for (std::size_t li = 0; li < nrm.nNodes(); ++li) {
      const auto cell = detail::cellPointForKey<DIM>(nrm.nodeKeys[li]);
      int owner = spl.ownerOfPoint(cell);
      PT_CHECK_MSG(owner >= 0, "query point outside old grid");
      if (owner == r) {
        q.pending[r][r].push_back(static_cast<std::int32_t>(li));
        for (int d = 0; d < DIM; ++d) buf[r].push_back(nrm.nodeKeys[li][d]);
      } else {
        q.pending[r][owner].push_back(static_cast<std::int32_t>(li));
        for (int d = 0; d < DIM; ++d)
          buf[owner].push_back(nrm.nodeKeys[li][d]);
      }
    }
    for (int dst = 0; dst < p; ++dst)
      if (!buf[dst].empty()) q.sends[r].emplace_back(dst, std::move(buf[dst]));
    comm.chargeWork(r, 40.0 * nrm.nNodes());
  }
  return q;
}

/// Evaluates the old field at every queried key (with the historical
/// answer-compute charge) and builds the reply batches.
template <int DIM>
sim::SparseSends<Real> answerNodalQueries(
    const Mesh<DIM>& oldMesh, const Field& oldF, int ndof,
    const sim::SparseSends<std::uint32_t>& qRecv) {
  sim::SimComm& comm = oldMesh.comm();
  const int p = comm.size();
  constexpr int kC = kNumChildren<DIM>;
  sim::SparseSends<Real> aSends(p);
  std::vector<Real> vals(kC * ndof);
  for (int r = 0; r < p; ++r) {
    const RankMesh<DIM>& orm = oldMesh.rank(r);
    for (const auto& [src, buf] : qRecv[r]) {
      const std::size_t nq = buf.size() / DIM;
      std::vector<Real> ans(nq * ndof);
      for (std::size_t i = 0; i < nq; ++i) {
        NodeKey<DIM> k;
        for (int d = 0; d < DIM; ++d) k[d] = buf[i * DIM + d];
        const auto cell = detail::cellPointForKey<DIM>(k);
        const std::int64_t e = locatePoint(orm.elems, cell);
        PT_CHECK_MSG(e >= 0, "old grid does not cover query point");
        fem::gatherElem(orm, static_cast<std::size_t>(e), oldF[r], ndof,
                        vals.data());
        detail::evalInElement<DIM>(orm.elems[e], vals.data(), ndof, k,
                                   &ans[i * ndof]);
      }
      comm.chargeWork(r, 60.0 * nq * ndof);
      aSends[r].emplace_back(src, std::move(ans));
    }
  }
  return aSends;
}

/// Lands answer payloads into the output field through the pending lists.
template <int DIM>
void scatterNodalAnswers(const sim::SparseSends<Real>& aRecv,
                         const NodalQueries<DIM>& q, int ndof, Field& out) {
  for (std::size_t r = 0; r < aRecv.size(); ++r) {
    for (const auto& [src, ans] : aRecv[r]) {
      const auto& idxs = q.pending[r][src];
      PT_CHECK(ans.size() == idxs.size() * static_cast<std::size_t>(ndof));
      for (std::size_t i = 0; i < idxs.size(); ++i)
        for (int d = 0; d < ndof; ++d)
          out[r][idxs[i] * ndof + d] = ans[i * ndof + d];
    }
  }
}

}  // namespace detail

/// Query-based nodal transfer: for every node of `newMesh`, evaluate the
/// old field at that position. Exact for positions coinciding with old
/// nodes (injection); interpolating otherwise. Handles mixed refinement
/// and coarsening with arbitrary level jumps. Pass `tables` (gathered once
/// per remesh epoch) to skip the per-field splitter allgather.
template <int DIM>
Field transferNodal(const Mesh<DIM>& oldMesh, const Field& oldF,
                    const Mesh<DIM>& newMesh, int ndof,
                    const TransferTables<DIM>* tables = nullptr) {
  sim::SimComm& comm = oldMesh.comm();

  // Old-grid splitters for routing point queries.
  Splitters<DIM> splLocal;
  if (!tables) splLocal = detail::localSplitters(oldMesh);
  const Splitters<DIM>& spl = tables ? tables->spl : splLocal;

  Field out = newMesh.makeField(ndof);
  detail::NodalQueries<DIM> q = detail::buildNodalQueries(newMesh, spl);
  auto qRecv = comm.sparseExchange(q.sends);
  auto aSends = detail::answerNodalQueries(oldMesh, oldF, ndof, qRecv);
  auto aRecv = comm.sparseExchange(aSends);
  detail::scatterNodalAnswers(aRecv, q, ndof, out);
  return out;
}

/// One nodal field of a multi-field transfer epoch.
template <int DIM>
struct NodalTransfer {
  const Field* oldF = nullptr;
  int ndof = 1;
};

/// Asynchronous multi-field nodal transfer epoch (DESIGN.md §15): all
/// fields' query exchanges are posted before any is finished, and each
/// field's answer compute is charged while the previous fields' answer
/// exchanges are still in flight; finishes happen in field order, so the
/// epoch is deterministic. Exchange structure (one query + one answer
/// exchange per field — the collective count the fault-injection tests
/// pin) and every output value are identical to calling transferNodal once
/// per field; only the virtual-clock charge credits the overlap. An empty
/// field list transfers nothing and charges nothing.
template <int DIM>
std::vector<Field> transferNodalMany(const Mesh<DIM>& oldMesh,
                                     const std::vector<NodalTransfer<DIM>>& fs,
                                     const Mesh<DIM>& newMesh,
                                     const TransferTables<DIM>* tables =
                                         nullptr) {
  sim::SimComm& comm = oldMesh.comm();
  const std::size_t nf = fs.size();
  std::vector<Field> out(nf);
  if (nf == 0) return out;

  // The per-field splitter gathers transferNodal would have charged.
  std::vector<Splitters<DIM>> splLocal;
  if (!tables)
    for (std::size_t f = 0; f < nf; ++f)
      splLocal.push_back(detail::localSplitters(oldMesh));
  const Splitters<DIM>& spl = tables ? tables->spl : splLocal.front();

  // Round 1: post every field's query exchange, then finish in order.
  // The queries (and their build charge) are per field, as in
  // transferNodal, but the exchange latencies overlap each other.
  std::vector<detail::NodalQueries<DIM>> qs;
  std::vector<sim::ExchangeHandle<std::uint32_t>> qh(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    qs.push_back(detail::buildNodalQueries(newMesh, spl));
    qh[f] = comm.exchangeStart(qs[f].sends);
  }
  std::vector<sim::SparseSends<std::uint32_t>> qRecv(nf);
  for (std::size_t f = 0; f < nf; ++f) qRecv[f] = comm.exchangeFinish(qh[f]);

  // Round 2: pipeline answer compute against answer exchanges — field f's
  // evaluation work hides under fields 0..f-1's in-flight replies.
  std::vector<sim::ExchangeHandle<Real>> ah(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    auto aSends =
        detail::answerNodalQueries(oldMesh, *fs[f].oldF, fs[f].ndof, qRecv[f]);
    ah[f] = comm.exchangeStart(aSends);
  }
  for (std::size_t f = 0; f < nf; ++f) {
    auto aRecv = comm.exchangeFinish(ah[f]);
    out[f] = newMesh.makeField(fs[f].ndof);
    detail::scatterNodalAnswers(aRecv, qs[f], fs[f].ndof, out[f]);
  }
  return out;
}

/// Per-element (cell-centered) transfer. Copy semantics where the new cell
/// is finer-or-equal than the old cell; volume-weighted averaging where the
/// new cell is coarser (paper: "Cell-centered values might be averaged").
template <int DIM>
sim::PerRank<std::vector<Real>> transferCell(
    const DistTree<DIM>& oldTree,
    const sim::PerRank<std::vector<Real>>& oldVals,
    const DistTree<DIM>& newTree,
    const TransferTables<DIM>* tables = nullptr) {
  sim::SimComm& comm = oldTree.comm();
  const int p = comm.size();
  const Splitters<DIM> spl = tables ? tables->spl : oldTree.splitters();

  sim::PerRank<std::vector<Real>> out(p);
  // Round 1: center query per new cell -> (old level, value).
  sim::SparseSends<std::uint32_t> sends(p);
  sim::PerRank<std::vector<std::vector<std::size_t>>> pending(p);
  for (int r = 0; r < p; ++r) pending[r].resize(p);
  for (int r = 0; r < p; ++r) {
    const auto& elems = newTree.localOf(r);
    out[r].assign(elems.size(), 0.0);
    std::vector<std::vector<std::uint32_t>> buf(p);
    for (std::size_t e = 0; e < elems.size(); ++e) {
      std::array<std::uint32_t, DIM> c;
      for (int d = 0; d < DIM; ++d) c[d] = elems[e].x[d] + elems[e].size() / 2;
      const int owner = spl.ownerOfPoint(c);
      PT_CHECK(owner >= 0);
      pending[r][owner].push_back(e);
      for (int d = 0; d < DIM; ++d) buf[owner].push_back(elems[e].x[d]);
      buf[owner].push_back(elems[e].level);
    }
    for (int dst = 0; dst < p; ++dst)
      if (!buf[dst].empty()) sends[r].emplace_back(dst, std::move(buf[dst]));
  }
  auto qRecv = comm.sparseExchange(sends);
  // Old side: for each queried new cell, either copy (old covers new) or
  // compute the partial volume average over old leaves inside the new cell.
  // Partial sums from multiple old ranks are combined by the requester.
  sim::SparseSends<Real> aSends(p);
  for (int r = 0; r < p; ++r) {
    const auto& elems = oldTree.localOf(r);
    for (const auto& [src, buf] : qRecv[r]) {
      const std::size_t nq = buf.size() / (DIM + 1);
      std::vector<Real> ans(nq * 2);  // (weightedSum, volume) per query
      for (std::size_t i = 0; i < nq; ++i) {
        Octant<DIM> nc;
        for (int d = 0; d < DIM; ++d) nc.x[d] = buf[i * (DIM + 1) + d];
        nc.level = static_cast<Level>(buf[i * (DIM + 1) + DIM]);
        std::array<std::uint32_t, DIM> c;
        for (int d = 0; d < DIM; ++d) c[d] = nc.x[d] + nc.size() / 2;
        const std::int64_t e0 = locatePoint(elems, c);
        if (e0 >= 0 && elems[e0].level <= nc.level) {
          // Old cell covers the new cell: plain copy, full weight.
          Real vol = 1.0;
          for (int d = 0; d < DIM; ++d) vol *= nc.physSize();
          ans[i * 2] = oldVals[r][e0] * vol;
          ans[i * 2 + 1] = vol;
        } else {
          // Old cells are finer: average my leaves inside nc.
          auto [i0, i1] = overlappedLocalRange(elems, nc, nc);
          Real wsum = 0, vsum = 0;
          for (std::size_t e = i0; e < i1; ++e) {
            if (!nc.isAncestorOf(elems[e])) continue;
            Real vol = 1.0;
            for (int d = 0; d < DIM; ++d) vol *= elems[e].physSize();
            wsum += oldVals[r][e] * vol;
            vsum += vol;
          }
          ans[i * 2] = wsum;
          ans[i * 2 + 1] = vsum;
        }
      }
      comm.chargeWork(r, 30.0 * nq);
      aSends[r].emplace_back(src, std::move(ans));
    }
  }
  auto aRecv = comm.sparseExchange(aSends);
  // Combine partials. NOTE: center-owner answers cover the copy case fully;
  // for averaging, leaves of nc may spill onto neighbor old ranks of the
  // center owner. Handle by a second round against those ranks.
  sim::PerRank<std::vector<Real>> wsum(p), vsum(p);
  for (int r = 0; r < p; ++r) {
    wsum[r].assign(newTree.localOf(r).size(), 0.0);
    vsum[r].assign(newTree.localOf(r).size(), 0.0);
    for (const auto& [src, ans] : aRecv[r]) {
      const auto& idxs = pending[r][src];
      for (std::size_t i = 0; i < idxs.size(); ++i) {
        wsum[r][idxs[i]] += ans[i * 2];
        vsum[r][idxs[i]] += ans[i * 2 + 1];
      }
    }
  }
  // Round 2: queries whose covered volume is incomplete go to the full
  // overlapped rank range (excluding the already-answered center owner).
  PartitionEndpoints<DIM> endsLocal;
  if (!tables) {
    endsLocal = PartitionEndpoints<DIM>::fromLocals(
        p, [&](int r) -> const OctList<DIM>& { return oldTree.localOf(r); });
    comm.allgather(sim::PerRank<Octant<DIM>>(p));
  }
  const PartitionEndpoints<DIM>& oldEnds = tables ? tables->oldEnds : endsLocal;
  sim::SparseSends<std::uint32_t> sends2(p);
  sim::PerRank<std::vector<std::vector<std::size_t>>> pending2(p);
  for (int r = 0; r < p; ++r) pending2[r].resize(p);
  for (int r = 0; r < p; ++r) {
    const auto& elems = newTree.localOf(r);
    std::vector<std::vector<std::uint32_t>> buf(p);
    for (std::size_t e = 0; e < elems.size(); ++e) {
      Real vol = 1.0;
      for (int d = 0; d < DIM; ++d) vol *= elems[e].physSize();
      if (vsum[r][e] >= vol * (1.0 - 1e-9)) continue;  // fully covered
      std::array<std::uint32_t, DIM> c;
      for (int d = 0; d < DIM; ++d) c[d] = elems[e].x[d] + elems[e].size() / 2;
      const int centerOwner = spl.ownerOfPoint(c);
      for (int q : overlappedRanks(oldEnds, elems[e], elems[e])) {
        if (q == centerOwner) continue;
        pending2[r][q].push_back(e);
        for (int d = 0; d < DIM; ++d) buf[q].push_back(elems[e].x[d]);
        buf[q].push_back(elems[e].level);
      }
    }
    for (int dst = 0; dst < p; ++dst)
      if (!buf[dst].empty()) sends2[r].emplace_back(dst, std::move(buf[dst]));
  }
  auto qRecv2 = comm.sparseExchange(sends2);
  sim::SparseSends<Real> aSends2(p);
  for (int r = 0; r < p; ++r) {
    const auto& elems = oldTree.localOf(r);
    for (const auto& [src, buf] : qRecv2[r]) {
      const std::size_t nq = buf.size() / (DIM + 1);
      std::vector<Real> ans(nq * 2, 0.0);
      for (std::size_t i = 0; i < nq; ++i) {
        Octant<DIM> nc;
        for (int d = 0; d < DIM; ++d) nc.x[d] = buf[i * (DIM + 1) + d];
        nc.level = static_cast<Level>(buf[i * (DIM + 1) + DIM]);
        auto [i0, i1] = overlappedLocalRange(elems, nc, nc);
        for (std::size_t e = i0; e < i1; ++e) {
          if (!nc.isAncestorOf(elems[e])) continue;
          Real vol = 1.0;
          for (int d = 0; d < DIM; ++d) vol *= elems[e].physSize();
          ans[i * 2] += oldVals[r][e] * vol;
          ans[i * 2 + 1] += vol;
        }
      }
      aSends2[r].emplace_back(src, std::move(ans));
    }
  }
  auto aRecv2 = comm.sparseExchange(aSends2);
  for (int r = 0; r < p; ++r) {
    for (const auto& [src, ans] : aRecv2[r]) {
      const auto& idxs = pending2[r][src];
      for (std::size_t i = 0; i < idxs.size(); ++i) {
        wsum[r][idxs[i]] += ans[i * 2];
        vsum[r][idxs[i]] += ans[i * 2 + 1];
      }
    }
    for (std::size_t e = 0; e < out[r].size(); ++e) {
      PT_CHECK_MSG(vsum[r][e] > 0, "new cell not covered by old grid");
      out[r][e] = wsum[r][e] / vsum[r][e];
    }
  }
  return out;
}

}  // namespace pt::intergrid
