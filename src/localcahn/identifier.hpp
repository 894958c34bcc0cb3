// Local-Cahn identification on distributed octree meshes — the paper's core
// contribution (Sec II-B3, Algorithms 1-4).
//
// All passes are MATVEC-shaped: a single loop over local elements with
// gather (hanging interpolation), an element-local decision, and an
// INSERT_VALUES scatter with ghost exchange — no neighbor lists required.
// Level differences between octree leaves are compensated by per-element
// counters: an element l levels coarser than the reference (finest) level
// b_l only triggers erosion/dilation every (b_l - l)-th visit, so coarse
// elements erode at the same *physical* rate as fine ones.
//
// Because they are MATVEC-shaped, the passes run through the same rank
// loop as fem::matvec (sim::forEachRank, DESIGN.md §8/§11): simulated
// ranks in parallel when the pool has workers, otherwise elementwise
// partitions inside the rank. Every decision is element-private (gather
// from the immutable current buffer + an element-local counter) and every
// write inserts one constant value, so results are bitwise identical for
// any thread count.
// The erosion/dilation sweep additionally replaces Algorithm 2's per-step
// `next = cur` full-field copy with ping-pong buffers plus a written-node
// dirty list, touching only interface-adjacent and partition-shared nodes
// between steps.
//
// Sign conventions (the published listings of Algorithms 3-4 carry a couple
// of typographical sign flips; we implement the semantics the surrounding
// text describes — see DESIGN.md):
//   phi_BW = +1 : immersed phase, -1 : bulk (Eq 4)
//   erosion sets interface-element nodes to -1 (shrinks the +1 region)
//   dilation sets interface-element nodes to +1 (grows the +1 region)
//   identified element (Eq 6): all nodes +1 under T(phi) and all nodes -1
//   after erosion + extra dilation -> the feature vanished -> reduce Cn.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fem/matvec.hpp"
#include "mesh/mesh.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "support/types.hpp"

namespace pt::localcahn {

/// Per-element scalar data (e.g. the elemental Cahn number).
using ElemField = sim::PerRank<std::vector<Real>>;

enum class Stage { kErosion, kDilation };

struct IdentifyParams {
  Real delta = -0.8;     ///< threshold; immersed phase is phi <= delta
  bool immersedNegative = true;
  int erodeSteps = 2;
  int extraDilateSteps = 3;  ///< dilations beyond erosions (paper: 3-4)
  /// Island removal / padding on the Cn field (Algorithm 4).
  int cnErodeSteps = 1;
  int cnExtraDilateSteps = 2;
  Real cnCoarse = 0.02;  ///< Cn2: ambient Cahn number
  Real cnFine = 0.01;    ///< Cn1 < Cn2: reduced Cahn in identified regions
};

/// Threshold(phi) -> phi_BW in {-1,+1} (Eq 4). Pointwise, stays consistent.
template <int DIM>
Field threshold(const Mesh<DIM>& mesh, const Field& phi, Real delta,
                bool immersedNegative) {
  Field bw = mesh.makeField(1);
  sim::forEachRank(mesh.nRanks(), [&](int r, bool innerThreads) {
    auto body = [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const bool immersed =
            immersedNegative ? phi[r][i] <= delta : phi[r][i] >= delta;
        bw[r][i] = immersed ? 1.0 : -1.0;
      }
    };
    if (innerThreads) {
      support::ThreadPool::instance().parallelFor(
          phi[r].size(),
          [&](int, std::size_t b, std::size_t e) { body(b, e); });
    } else {
      body(0, phi[r].size());
    }
    mesh.comm().chargeWork(r, phi[r].size());
  });
  return bw;
}

/// True if the gathered elemental values straddle the interface: with
/// hanging interpolation the values may be fractional, so Eq 5's
/// |sum| != nodes test carries a tolerance.
template <int DIM>
bool elementHasInterface(const Real* vals) {
  constexpr int kC = kNumChildren<DIM>;
  Real sum = 0;
  for (int c = 0; c < kC; ++c) sum += vals[c];
  return std::abs(std::abs(sum) - kC) > 1e-9;
}

namespace detail {

/// INSERT-semantics elemental write (ndof = 1) that also appends each
/// newly-flagged node to `dirty` — the per-step written-node list the
/// ping-pong sweep uses to re-sync its buffers without a full copy.
template <int DIM>
void scatterInsertElemCollect(const RankMesh<DIM>& rm, std::size_t e,
                              const Real* in, std::vector<Real>& y,
                              std::vector<char>& written,
                              std::vector<std::int32_t>& dirty) {
  constexpr int kC = kNumChildren<DIM>;
  if (rm.plan.isPure[e]) {
    const std::uint32_t* nodes = &rm.plan.pureNodes[rm.plan.slot[e] * kC];
    for (int c = 0; c < kC; ++c) {
      y[nodes[c]] = in[c];
      if (!written[nodes[c]]) {
        written[nodes[c]] = 1;
        dirty.push_back(static_cast<std::int32_t>(nodes[c]));
      }
    }
    return;
  }
  for (int c = 0; c < kC; ++c) {
    const std::uint32_t lo = rm.cornerOffset[e * kC + c];
    const std::uint32_t hi = rm.cornerOffset[e * kC + c + 1];
    for (std::uint32_t s = lo; s < hi; ++s) {
      const auto& sup = rm.supports[s];
      y[sup.node] = in[c];
      if (!written[sup.node]) {
        written[sup.node] = 1;
        dirty.push_back(sup.node);
      }
    }
  }
}

}  // namespace detail

/// Algorithm 2: ERODEDILATE. Runs `numSteps` erosion or dilation passes over
/// the nodal vector, with level-aware counters relative to the reference
/// (finest) level `bl`. Returns the processed vector; `vec` is not modified.
///
/// Ping-pong buffers plus a dirty list stand in for the listing's per-step
/// full copy. The result is bitwise identical to that copy loop at any
/// thread count: decisions read only the immutable current buffer, writes
/// insert one constant value, and the scatter runs sequentially in element
/// order.
template <int DIM>
Field erodeDilate(const Mesh<DIM>& mesh, const Field& vec, Stage stage,
                  int numSteps, Level bl) {
  constexpr int kC = kNumChildren<DIM>;
  const int p = mesh.nRanks();
  const Real val = (stage == Stage::kErosion) ? -1.0 : +1.0;

  if (numSteps <= 0) return vec;
  Field cur = vec;
  Field next = vec;  // ping-pong partner
  // Counters persist across the steps of one call (an element (bl - l)
  // levels coarse triggers only every (bl - l)-th visited step).
  sim::PerRank<std::vector<int>> counter(p);
  sim::PerRank<std::vector<char>> written(p), act(p);
  sim::PerRank<std::vector<std::int32_t>> dirty(p), shared(p);
  for (int r = 0; r < p; ++r) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    counter[r].assign(rm.nElems(), 0);
    written[r].assign(rm.nNodes(), 0);
    act[r].assign(rm.nElems(), 0);
    // Static shared-node list: the only nodes insertConsistent/ghostRead
    // can rewrite beyond this rank's own flagged writes.
    for (const auto& [q, idxs] : rm.mirror)
      shared[r].insert(shared[r].end(), idxs.begin(), idxs.end());
    for (const auto& [q, idxs] : rm.ghosts)
      shared[r].insert(shared[r].end(), idxs.begin(), idxs.end());
    std::sort(shared[r].begin(), shared[r].end());
    shared[r].erase(std::unique(shared[r].begin(), shared[r].end()),
                    shared[r].end());
  }

  for (int step = 0; step < numSteps; ++step) {
    sim::forEachRank(p, [&](int r, bool innerThreads) {
      const RankMesh<DIM>& rm = mesh.rank(r);
      // Invariant entering the step: next == cur except at the nodes the
      // previous step wrote (collected in dirty) or exchanged (shared).
      // Re-sync those and clear their written flags — everything else is
      // already a faithful copy, no O(nNodes) pass needed.
      for (std::int32_t n : dirty[r]) {
        next[r][n] = cur[r][n];
        written[r][n] = 0;
      }
      for (std::int32_t n : shared[r]) {
        next[r][n] = cur[r][n];
        written[r][n] = 0;
      }
      dirty[r].clear();
      // Decision phase: element-private (counter updates included), so the
      // elementwise partition is deterministic for any thread count.
      auto decide = [&](std::size_t b, std::size_t e) {
        std::vector<Real> uLoc(kC);
        for (std::size_t el = b; el < e; ++el) {
          fem::gatherElem(rm, el, cur[r], 1, uLoc.data());
          if (!elementHasInterface<DIM>(uLoc.data())) {
            act[r][el] = 0;
            continue;
          }
          const int wait = bl - rm.elems[el].level;
          if (counter[r][el] == wait) {
            act[r][el] = 1;
            counter[r][el] = 0;
          } else {
            act[r][el] = 0;
            ++counter[r][el];
          }
        }
      };
      if (innerThreads) {
        support::ThreadPool::instance().parallelFor(
            rm.nElems(),
            [&](int, std::size_t b, std::size_t e) { decide(b, e); });
      } else {
        decide(0, rm.nElems());
      }
      // Scatter phase, sequentially in element order (INSERT of one
      // constant — identical to deciding and writing interleaved).
      std::vector<Real> wLoc(kC, val);
      for (std::size_t el = 0; el < rm.nElems(); ++el)
        if (act[r][el])
          detail::scatterInsertElemCollect(rm, el, wLoc.data(), next[r],
                                           written[r], dirty[r]);
      mesh.comm().chargeWork(r, fem::matvecWorkPerElem<DIM>(1) * rm.nElems());
    });
    mesh.insertConsistent(next, written, 1);  // GhostWrite(INSERT) + read
    cur.swap(next);
  }
  return cur;
}

/// Algorithm 3: ELEMENTALCAHN — Eq 6 element marking. Identified elements
/// (fully immersed under T(phi), fully lost after erode+dilate) get cnFine.
template <int DIM>
ElemField elementalCahn(const Mesh<DIM>& mesh, const Field& bwOriginal,
                        const Field& bwProcessed, Real cnFine, Real cnCoarse) {
  constexpr int kC = kNumChildren<DIM>;
  const int p = mesh.nRanks();
  ElemField cn(p);
  sim::forEachRank(p, [&](int r, bool innerThreads) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    cn[r].assign(rm.nElems(), cnCoarse);
    auto body = [&](std::size_t b, std::size_t e) {
      std::vector<Real> o(kC), d(kC);
      for (std::size_t el = b; el < e; ++el) {
        fem::gatherElem(rm, el, bwOriginal[r], 1, o.data());
        fem::gatherElem(rm, el, bwProcessed[r], 1, d.data());
        Real so = 0, sd = 0;
        for (int c = 0; c < kC; ++c) {
          so += o[c];
          sd += d[c];
        }
        if (std::abs(so - kC) < 1e-9 && std::abs(sd + kC) < 1e-9)
          cn[r][el] = cnFine;
      }
    };
    if (innerThreads) {
      support::ThreadPool::instance().parallelFor(
          rm.nElems(), [&](int, std::size_t b, std::size_t e) { body(b, e); });
    } else {
      body(0, rm.nElems());
    }
    mesh.comm().chargeWork(r, 6.0 * kC * rm.nElems());
  });
  return cn;
}

/// Algorithm 4: ERODEDILATECAHN — removes sub-threshold islands of reduced
/// Cn and pads the surviving regions, by lifting the elemental marker to a
/// nodal +/-1 vector (+1 = reduced-Cn region) and reusing Algorithm 2.
template <int DIM>
ElemField erodeDilateCahn(const Mesh<DIM>& mesh, const ElemField& cn, Level bl,
                          Real cnFine, Real cnCoarse, int erodeSteps,
                          int extraDilateSteps) {
  constexpr int kC = kNumChildren<DIM>;
  const int p = mesh.nRanks();
  // Elemental -> nodal marker.
  Field marker = mesh.makeField(1);
  sim::PerRank<std::vector<char>> written(p);
  sim::forEachRank(p, [&](int r, bool /*innerThreads*/) {
    std::fill(marker[r].begin(), marker[r].end(), -1.0);
    written[r].assign(mesh.rank(r).nNodes(), 0);
    const RankMesh<DIM>& rm = mesh.rank(r);
    std::vector<Real> wLoc(kC, 1.0);
    for (std::size_t e = 0; e < rm.nElems(); ++e)
      if (cn[r][e] == cnFine)
        fem::scatterInsertElem(rm, e, wLoc.data(), 1, marker[r], written[r]);
    mesh.comm().chargeWork(r, 4.0 * kC * rm.nElems());
  });
  mesh.insertConsistent(marker, written, 1);

  marker = erodeDilate(mesh, marker, Stage::kErosion, erodeSteps, bl);
  marker = erodeDilate(mesh, marker, Stage::kDilation,
                       erodeSteps + extraDilateSteps, bl);

  // Nodal -> elemental: any +1 node keeps / pads the reduced Cn.
  ElemField out(p);
  sim::forEachRank(p, [&](int r, bool innerThreads) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    out[r].assign(rm.nElems(), cnCoarse);
    auto body = [&](std::size_t b, std::size_t e) {
      std::vector<Real> m(kC);
      for (std::size_t el = b; el < e; ++el) {
        fem::gatherElem(rm, el, marker[r], 1, m.data());
        for (int c = 0; c < kC; ++c)
          if (m[c] > 0) {
            out[r][el] = cnFine;
            break;
          }
      }
    };
    if (innerThreads) {
      support::ThreadPool::instance().parallelFor(
          rm.nElems(), [&](int, std::size_t b, std::size_t e) { body(b, e); });
    } else {
      body(0, rm.nElems());
    }
    mesh.comm().chargeWork(r, 3.0 * kC * rm.nElems());
  });
  return out;
}

/// Algorithm 1: LOCALCAHNIDENTIFIER — the full pipeline.
template <int DIM>
ElemField identifyLocalCahn(const Mesh<DIM>& mesh, const Field& phi, Level bl,
                            const IdentifyParams& p = {}) {
  Field bw = threshold(mesh, phi, p.delta, p.immersedNegative);
  Field eroded = erodeDilate(mesh, bw, Stage::kErosion, p.erodeSteps, bl);
  Field dilated = erodeDilate(mesh, eroded, Stage::kDilation,
                              p.erodeSteps + p.extraDilateSteps, bl);
  ElemField cn = elementalCahn(mesh, bw, dilated, p.cnFine, p.cnCoarse);
  return erodeDilateCahn(mesh, cn, bl, p.cnFine, p.cnCoarse, p.cnErodeSteps,
                         p.cnExtraDilateSteps);
}

/// Multi-level extension (paper Sec II-B3 closing remark): each stage k has
/// its own erosion/dilation depths and Cn value; deeper stages identify
/// thinner features. Returns per-element stage index: 0 = ambient, k >= 1 =
/// identified at stage k (the deepest matching stage wins).
template <int DIM>
struct CnStage {
  IdentifyParams params;
  Real cn;  ///< Cahn number assigned to this stage
};

template <int DIM>
sim::PerRank<std::vector<int>> identifyMultiLevelCahn(
    const Mesh<DIM>& mesh, const Field& phi, Level bl,
    const std::vector<CnStage<DIM>>& stages) {
  const int p = mesh.nRanks();
  sim::PerRank<std::vector<int>> out(p);
  for (int r = 0; r < p; ++r) out[r].assign(mesh.rank(r).nElems(), 0);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    ElemField cn = identifyLocalCahn(mesh, phi, bl, stages[s].params);
    sim::forEachRank(p, [&](int r, bool) {
      for (std::size_t e = 0; e < cn[r].size(); ++e)
        if (cn[r][e] == stages[s].params.cnFine)
          out[r][e] = static_cast<int>(s + 1);
      mesh.comm().chargeWork(r, cn[r].size());
    });
  }
  return out;
}

/// Maps a stage index field to elemental Cn values.
template <int DIM>
ElemField cnFromStages(const Mesh<DIM>& mesh,
                       const sim::PerRank<std::vector<int>>& stageIdx,
                       Real ambientCn, const std::vector<CnStage<DIM>>& stages) {
  const int p = mesh.nRanks();
  ElemField cn(p);
  sim::forEachRank(p, [&](int r, bool) {
    cn[r].assign(stageIdx[r].size(), ambientCn);
    for (std::size_t e = 0; e < stageIdx[r].size(); ++e)
      if (stageIdx[r][e] > 0) cn[r][e] = stages[stageIdx[r][e] - 1].cn;
    mesh.comm().chargeWork(r, stageIdx[r].size());
  });
  return cn;
}

/// Desired refinement levels for remeshing (paper: "refine the interface
/// region (|phi| < delta*) with the appropriate resolution", and only near
/// the interface even inside reduced-Cn regions). An element with a corner
/// value |phi| < deltaStar refines to `nearLevel(r, e)`; elements away from
/// the interface may coarsen down to `coarseLevel`. `nearLevel` must be
/// re-entrant (it runs on pool threads).
template <int DIM, typename NearLevel>
sim::PerRank<std::vector<Level>> interfaceBandLevels(const Mesh<DIM>& mesh,
                                                     const Field& phi,
                                                     Real deltaStar,
                                                     Level coarseLevel,
                                                     NearLevel&& nearLevel) {
  constexpr int kC = kNumChildren<DIM>;
  const int p = mesh.nRanks();
  sim::PerRank<std::vector<Level>> want(p);
  sim::forEachRank(p, [&](int r, bool innerThreads) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    want[r].assign(rm.nElems(), coarseLevel);
    auto body = [&](std::size_t b, std::size_t e) {
      std::vector<Real> u(kC);
      for (std::size_t el = b; el < e; ++el) {
        fem::gatherElem(rm, el, phi[r], 1, u.data());
        bool nearInterface = false;
        for (int c = 0; c < kC; ++c)
          nearInterface = nearInterface || std::abs(u[c]) < deltaStar;
        if (nearInterface) want[r][el] = nearLevel(r, el);
      }
    };
    if (innerThreads) {
      support::ThreadPool::instance().parallelFor(
          rm.nElems(), [&](int, std::size_t b, std::size_t e) { body(b, e); });
    } else {
      body(0, rm.nElems());
    }
    mesh.comm().chargeWork(r, 4.0 * kC * rm.nElems());
  });
  return want;
}

/// The single-level band: identified (cn == cnFine) elements refine to
/// `featureLevel`, the rest of the band to `interfaceLevel`.
template <int DIM>
sim::PerRank<std::vector<Level>> interfaceRefineLevels(
    const Mesh<DIM>& mesh, const Field& phi, const ElemField& cn, Real cnFine,
    Real deltaStar, Level coarseLevel, Level interfaceLevel,
    Level featureLevel) {
  return interfaceBandLevels<DIM>(
      mesh, phi, deltaStar, coarseLevel, [&](int r, std::size_t e) {
        return cn[r][e] == cnFine ? featureLevel : interfaceLevel;
      });
}

}  // namespace pt::localcahn
