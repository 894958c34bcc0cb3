// Matrix-free MATVEC over the distributed mesh — the paper's core kernel
// ("MATVEC operations are at the heart of FEM computations"): a pass over
// the local elements with gather (hanging interpolation), an elemental
// kernel, scatter (transpose interpolation), and one ghost accumulation.
//
// The traversal is driven by the precomputed ElemPlan (mesh/mesh.hpp):
// *pure* elements — every corner non-hanging — gather and scatter through a
// flat node-index array with no weight multiplies; only *hanging* elements
// walk the weighted support lists. Kernels are template parameters so
// elemental operators inline into the traversal; the legacy type-erased
// ElemKernel alias remains for callers that need runtime dispatch
// (matvecNaive keeps the original unplanned loop as the golden reference).
//
// Threading (support/thread_pool.hpp): ranks are independent
// until Mesh::accumulate, so multiple simulated ranks run in parallel; a
// single rank splits its element range into windows whose kernels are
// evaluated in parallel into per-window scratch, then scattered
// *sequentially in element order*. Either way every elemental result is
// computed by the same FP operations and accumulated in the same order as
// the serial code, so planned results are bit-identical to the naive path
// for any thread count. (The batched GEMM engines in matvec_batched.hpp
// reassociate, so they match this path to roundoff only; each is still
// bitwise identical across thread counts. See there.)
//
// The same traversal, with INSERT instead of ADD semantics, drives the
// erosion/dilation passes of the local-Cahn identifier (Algorithm 2).
#pragma once

#include <functional>
#include <vector>

#include "fem/elem_ops.hpp"
#include "mesh/mesh.hpp"
#include "obs/trace.hpp"
#include "support/thread_pool.hpp"
#include "support/types.hpp"

namespace pt::fem {

/// Gathers the 2^DIM * ndof corner values of element `e` from a consistent
/// field, applying hanging-node interpolation weights. Pure elements (per
/// the mesh's ElemPlan) take the direct indexed path.
template <int DIM>
void gatherElem(const RankMesh<DIM>& rm, std::size_t e,
                const std::vector<Real>& x, int ndof, Real* out) {
  constexpr int kC = kNumChildren<DIM>;
  if (rm.plan.isPure[e]) {
    const std::uint32_t* nodes = &rm.plan.pureNodes[rm.plan.slot[e] * kC];
    for (int c = 0; c < kC; ++c) {
      const Real* src = &x[nodes[c] * ndof];
      for (int d = 0; d < ndof; ++d) out[c * ndof + d] = src[d];
    }
    return;
  }
  for (int c = 0; c < kC; ++c) {
    for (int d = 0; d < ndof; ++d) out[c * ndof + d] = 0.0;
    const std::uint32_t lo = rm.cornerOffset[e * kC + c];
    const std::uint32_t hi = rm.cornerOffset[e * kC + c + 1];
    for (std::uint32_t s = lo; s < hi; ++s) {
      const auto& sup = rm.supports[s];
      for (int d = 0; d < ndof; ++d)
        out[c * ndof + d] += sup.weight * x[sup.node * ndof + d];
    }
  }
}

/// Scatter-add of elemental results back to nodes (transpose of gather),
/// with the same pure-element fast path.
template <int DIM>
void scatterAddElem(const RankMesh<DIM>& rm, std::size_t e, const Real* in,
                    int ndof, std::vector<Real>& y) {
  constexpr int kC = kNumChildren<DIM>;
  if (rm.plan.isPure[e]) {
    const std::uint32_t* nodes = &rm.plan.pureNodes[rm.plan.slot[e] * kC];
    for (int c = 0; c < kC; ++c) {
      Real* dst = &y[nodes[c] * ndof];
      for (int d = 0; d < ndof; ++d) dst[d] += in[c * ndof + d];
    }
    return;
  }
  for (int c = 0; c < kC; ++c) {
    const std::uint32_t lo = rm.cornerOffset[e * kC + c];
    const std::uint32_t hi = rm.cornerOffset[e * kC + c + 1];
    for (std::uint32_t s = lo; s < hi; ++s) {
      const auto& sup = rm.supports[s];
      for (int d = 0; d < ndof; ++d)
        y[sup.node * ndof + d] += sup.weight * in[c * ndof + d];
    }
  }
}

/// INSERT-semantics elemental write: sets every support node of every
/// corner to the given per-corner values and flags it written.
template <int DIM>
void scatterInsertElem(const RankMesh<DIM>& rm, std::size_t e, const Real* in,
                       int ndof, std::vector<Real>& y,
                       std::vector<char>& written) {
  constexpr int kC = kNumChildren<DIM>;
  if (rm.plan.isPure[e]) {
    const std::uint32_t* nodes = &rm.plan.pureNodes[rm.plan.slot[e] * kC];
    for (int c = 0; c < kC; ++c) {
      Real* dst = &y[nodes[c] * ndof];
      for (int d = 0; d < ndof; ++d) dst[d] = in[c * ndof + d];
      written[nodes[c]] = 1;
    }
    return;
  }
  for (int c = 0; c < kC; ++c) {
    const std::uint32_t lo = rm.cornerOffset[e * kC + c];
    const std::uint32_t hi = rm.cornerOffset[e * kC + c + 1];
    for (std::uint32_t s = lo; s < hi; ++s) {
      const auto& sup = rm.supports[s];
      for (int d = 0; d < ndof; ++d)
        y[sup.node * ndof + d] = in[c * ndof + d];
      written[sup.node] = 1;
    }
  }
}

/// Type-erased elemental kernel: out += A_e * in for one element. Kept for
/// callers that need runtime dispatch; the engine itself is templated on
/// the kernel type so lambdas inline.
template <int DIM>
using ElemKernel =
    std::function<void(const Octant<DIM>& oct, const Real* in, Real* out)>;

/// Estimated work units per element for the machine model (gather + kernel
/// + scatter of a kNodes x kNodes dense elemental operator).
template <int DIM>
double matvecWorkPerElem(int ndof) {
  const double n = kNodes<DIM> * ndof;
  return 2.0 * n * n + 8.0 * n;
}

/// Elements per threaded compute window: kernels of one window are
/// evaluated in parallel into scratch, then scattered in element order.
inline constexpr std::size_t kMatvecWindow = 2048;

namespace matvecdetail {

/// One rank of the planned traversal with ADD semantics. `kernel` receives
/// (e, oct, in, out) and must be re-entrant when threading is enabled (no
/// shared mutable scratch).
template <int DIM, typename Kernel>
void applyRankAdd(const RankMesh<DIM>& rm, const std::vector<Real>& x,
                  std::vector<Real>& y, int ndof, bool innerThreads,
                  Kernel&& kernel) {
  constexpr int kC = kNumChildren<DIM>;
  const std::size_t n = rm.nElems();
  const std::size_t stride = static_cast<std::size_t>(kC) * ndof;
  auto& pool = support::ThreadPool::instance();

  if (!innerThreads || pool.threads() <= 1 || n < 2 * kMatvecWindow) {
    std::vector<Real> uLoc(stride), rLoc(stride);
    for (std::size_t e = 0; e < n; ++e) {
      gatherElem(rm, e, x, ndof, uLoc.data());
      std::fill(rLoc.begin(), rLoc.end(), 0.0);
      kernel(e, rm.elems[e], uLoc.data(), rLoc.data());
      scatterAddElem(rm, e, rLoc.data(), ndof, y);
    }
    return;
  }

  // Windowed: parallel gather+kernel into scratch, sequential in-order
  // scatter — the scatter order (and hence the result) matches the serial
  // loop bit-for-bit. Workers open a span each, so the threaded timeline
  // is visible.
  std::vector<Real> scratch(kMatvecWindow * stride);
  for (std::size_t w0 = 0; w0 < n; w0 += kMatvecWindow) {
    const std::size_t w1 = std::min(n, w0 + kMatvecWindow);
    pool.parallelFor(w1 - w0, [&](int, std::size_t b, std::size_t e) {
      PT_SPAN("matvec-window");
      std::vector<Real> uLoc(stride);
      for (std::size_t i = b; i < e; ++i) {
        const std::size_t el = w0 + i;
        Real* out = scratch.data() + i * stride;
        gatherElem(rm, el, x, ndof, uLoc.data());
        std::fill(out, out + stride, 0.0);
        kernel(el, rm.elems[el], uLoc.data(), out);
      }
    });
    for (std::size_t i = 0; i < w1 - w0; ++i)
      scatterAddElem(rm, w0 + i, scratch.data() + i * stride, ndof, y);
  }
}

}  // namespace matvecdetail

/// Charges a MATVEC's elemental work and accumulates `y` with the ghost
/// exchange overlapped (DESIGN.md §15): every rank charges the work of its
/// boundary elements (ElemPlan::nBoundaryElems — the only elements that
/// write a node another rank holds), the accumulate is posted, the interior
/// work is charged while it is in flight, and the finish completes it. The
/// engines compute in one pass before calling this: SimComm materializes
/// the payloads when the exchange is posted, so only the order of the
/// charges is observable. On one rank the boundary count is 0 and the clock
/// equals a blocking accumulate after the whole loop.
template <int DIM>
void accumulateOverlapped(const Mesh<DIM>& mesh, Field& y, int ndof,
                          double workPerElem) {
  const int p = mesh.nRanks();
  for (int r = 0; r < p; ++r)
    mesh.comm().chargeWork(r, workPerElem * mesh.rank(r).plan.nBoundaryElems);
  auto h = mesh.accumulateStart(y, ndof);
  for (int r = 0; r < p; ++r) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    const std::size_t interior = rm.nElems() - rm.plan.nBoundaryElems;
    mesh.comm().chargeWork(r, workPerElem * interior);
  }
  mesh.accumulateFinish(h, y, ndof);
}

/// MATVEC variant whose kernel also receives (rank, element index) so the
/// caller can gather auxiliary state fields (velocity, phase field, ...)
/// for the element — used by the CHNS operators. When threading is enabled
/// the kernel must be re-entrant (keep per-element scratch local).
template <int DIM, typename Kernel>
void matvecIndexed(const Mesh<DIM>& mesh, const Field& x, Field& y, int ndof,
                   Kernel&& kernel) {
  PT_SPAN("matvec");
  sim::forEachRank(mesh.nRanks(), [&](int r, bool innerThreads) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    y[r].assign(rm.nNodes() * ndof, 0.0);
    matvecdetail::applyRankAdd(
        rm, x[r], y[r], ndof, innerThreads,
        [&kernel, r](std::size_t e, const Octant<DIM>& oct, const Real* in,
                     Real* out) { kernel(r, e, oct, in, out); });
  });
  accumulateOverlapped(mesh, y, ndof, matvecWorkPerElem<DIM>(ndof));
}

/// Distributed matrix-free MATVEC: y = A x with A defined element-wise.
/// `x` must be ghost-consistent; `y` is overwritten and ends consistent.
/// `kernel(oct, in, out)` is a template parameter and inlines; pass an
/// ElemKernel<DIM> explicitly if type erasure is wanted.
template <int DIM, typename Kernel>
void matvec(const Mesh<DIM>& mesh, const Field& x, Field& y, int ndof,
            Kernel&& kernel) {
  matvecIndexed<DIM>(mesh, x, y, ndof,
                     [&kernel](int, std::size_t, const Octant<DIM>& oct,
                               const Real* in, Real* out) {
                       kernel(oct, in, out);
                     });
}

/// The original unplanned traversal: weighted gather/scatter for every
/// corner, one element at a time, type-erased kernel. Kept as the golden
/// reference for tests and as the "naive" baseline in the throughput bench.
template <int DIM>
void matvecNaive(const Mesh<DIM>& mesh, const Field& x, Field& y, int ndof,
                 const ElemKernel<DIM>& kernel) {
  const int p = mesh.nRanks();
  constexpr int kC = kNumChildren<DIM>;
  std::vector<Real> uLoc(kC * ndof), rLoc(kC * ndof);
  for (int r = 0; r < p; ++r) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    y[r].assign(rm.nNodes() * ndof, 0.0);
    for (std::size_t e = 0; e < rm.nElems(); ++e) {
      // Weighted path regardless of the plan (the pre-plan code).
      for (int c = 0; c < kC; ++c) {
        for (int d = 0; d < ndof; ++d) uLoc[c * ndof + d] = 0.0;
        const std::uint32_t lo = rm.cornerOffset[e * kC + c];
        const std::uint32_t hi = rm.cornerOffset[e * kC + c + 1];
        for (std::uint32_t s = lo; s < hi; ++s)
          for (int d = 0; d < ndof; ++d)
            uLoc[c * ndof + d] +=
                rm.supports[s].weight * x[r][rm.supports[s].node * ndof + d];
      }
      std::fill(rLoc.begin(), rLoc.end(), 0.0);
      kernel(rm.elems[e], uLoc.data(), rLoc.data());
      for (int c = 0; c < kC; ++c) {
        const std::uint32_t lo = rm.cornerOffset[e * kC + c];
        const std::uint32_t hi = rm.cornerOffset[e * kC + c + 1];
        for (std::uint32_t s = lo; s < hi; ++s)
          for (int d = 0; d < ndof; ++d)
            y[r][rm.supports[s].node * ndof + d] +=
                rm.supports[s].weight * rLoc[c * ndof + d];
      }
    }
    mesh.comm().chargeWork(r, matvecWorkPerElem<DIM>(ndof) * rm.nElems());
  }
  mesh.accumulate(y, ndof);
}

/// Assembles a global "vector" (rhs) from an elemental vector kernel:
/// kernel(rank, e, oct, out[kC*ndof]).
template <int DIM, typename Kernel>
void assembleRhs(const Mesh<DIM>& mesh, Field& y, int ndof, Kernel&& kernel) {
  const int p = mesh.nRanks();
  constexpr int kC = kNumChildren<DIM>;
  std::vector<Real> rLoc(kC * ndof);
  for (int r = 0; r < p; ++r) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    y[r].assign(rm.nNodes() * ndof, 0.0);
    for (std::size_t e = 0; e < rm.nElems(); ++e) {
      std::fill(rLoc.begin(), rLoc.end(), 0.0);
      kernel(r, e, rm.elems[e], rLoc.data());
      scatterAddElem(rm, e, rLoc.data(), ndof, y[r]);
    }
    mesh.comm().chargeWork(r, matvecWorkPerElem<DIM>(ndof) * rm.nElems());
  }
  mesh.accumulate(y, ndof);
}

/// Mass-matrix MATVEC (ndof = 1); the kernel inlines through the plan.
template <int DIM>
void massMatvec(const Mesh<DIM>& mesh, const Field& x, Field& y) {
  matvec<DIM>(mesh, x, y, 1,
              [](const Octant<DIM>& oct, const Real* in, Real* out) {
                applyMass<DIM>(oct.physSize(), in, out);
              });
}

/// Stiffness-matrix MATVEC (ndof = 1); the kernel inlines through the plan.
template <int DIM>
void stiffnessMatvec(const Mesh<DIM>& mesh, const Field& x, Field& y) {
  matvec<DIM>(mesh, x, y, 1,
              [](const Octant<DIM>& oct, const Real* in, Real* out) {
                applyStiffness<DIM>(oct.physSize(), in, out);
              });
}

/// Evaluates a callback at every node position of a field (e.g. to set
/// initial conditions). Ends consistent by construction (same function
/// applied to every copy).
template <int DIM>
void setByPosition(const Mesh<DIM>& mesh, Field& f, int ndof,
                   const std::function<void(const VecN<DIM>&, Real*)>& fn) {
  for (int r = 0; r < mesh.nRanks(); ++r) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    for (std::size_t li = 0; li < rm.nNodes(); ++li)
      fn(nodeCoords(rm.nodeKeys[li]), &f[r][li * ndof]);
  }
}

}  // namespace pt::fem
