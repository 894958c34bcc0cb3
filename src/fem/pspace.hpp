// Higher-order (p >= 2) scalar node space over a hanging-free octree mesh —
// the new scenario axis the sum-factorized tensor kernels unlock (DESIGN.md
// §8). A degree-P element carries (P+1)^DIM equispaced nodes; PSpace builds
// the distributed node set, the batched MATVEC over it, the Jacobi
// diagonal, and the transfer pair to the mesh's p = 1 nodal space that a
// p-multigrid preconditioner composes with the existing h-GMG.
//
// Node identity is exact integer arithmetic: scaling the octree lattice by
// P puts node i of an element with anchor a and size s at integer
// coordinate a*P + i*s per dimension (max kMaxCoord * P < 2^23, fits
// uint32), so shared nodes match across elements and ranks with no
// floating-point tolerance. Multi-rank sharing is resolved in-process like
// the rest of pt::sim: nodes present on several ranks form accumulation
// groups, owned by the lowest sharer rank (reductions count owned nodes
// once; accumulate() sums group copies and writes the total back to all).
//
// Scope: hanging-free meshes (every element pure — uniform trees or
// conforming refinements) and scalar fields. The MATVEC reuses the SIMD
// panel machinery of fem/simd.hpp with kN = (P+1)^DIM — per-level dense
// operators from tensorAssembleDense applied to gathered dof-major panels —
// and exposes the sum-factorized per-element kernel (tensorApplyHelmholtz)
// as a measured variant. Both run serially per rank, so results are
// bitwise identical for any thread count at a fixed kernel tier.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "fem/basis.hpp"
#include "fem/simd.hpp"
#include "fem/tensor_kernels.hpp"
#include "la/space.hpp"
#include "mesh/mesh.hpp"
#include "support/check.hpp"

namespace pt::fem {

template <int DIM, int P>
class PSpace {
 public:
  static_assert(P >= 1 && P <= 3, "tensor kernels tabulated for p = 1..3");
  static constexpr int kP1 = P + 1;
  static constexpr int kNpe = kTensorNodes<DIM, P>;  ///< nodes per element
  static constexpr int kC = kNodes<DIM>;             ///< mesh corners/elem
  using Key = std::array<std::uint32_t, DIM>;        ///< P-scaled lattice

  struct RankSpace {
    std::vector<Key> keys;                 ///< sorted lexicographic
    std::vector<char> owned;               ///< lowest-sharer-rank ownership
    std::vector<std::uint32_t> elemNodes;  ///< nElems * kNpe (lex in-elem)
    /// Level-sorted traversal: order[s] = element index of slot s, batches
    /// as uniform-level runs (<= kMatvecBatch). batchNodes/batchNodesT are
    /// the slot-order node maps (element-major and batch-transposed — same
    /// contract as ElemPlan::pureNodes/pureNodesT).
    std::vector<std::uint32_t> order;
    std::vector<ElemPlanBatch> batches;
    std::vector<std::uint32_t> batchNodes, batchNodesT;
    /// p -> 1 embedding: node i interpolates from its first containing
    /// element's mesh corners pNode[i*kC + c] with weight pW[i*kC + c]
    /// (multilinear shape values — identical from any containing element
    /// on a conforming mesh, so the choice of element is immaterial).
    std::vector<std::uint32_t> pNode;
    std::vector<Real> pW;
    std::size_t nNodes() const { return keys.size(); }
  };

  explicit PSpace(const Mesh<DIM>& mesh) : mesh_(&mesh) {
    const int p = mesh.nRanks();
    ranks_.resize(p);
    std::map<Key, std::vector<std::pair<int, std::uint32_t>>> sharers;
    for (int r = 0; r < p; ++r) {
      const RankMesh<DIM>& rm = mesh.rank(r);
      PT_CHECK(rm.plan.nHanging() == 0 &&
               "PSpace requires a hanging-free (conforming) mesh");
      RankSpace& rs = ranks_[r];
      const std::size_t ne = rm.nElems();
      // All element-node keys, then sort-unique into the rank's node set.
      std::vector<Key> all(ne * kNpe);
      for (std::size_t e = 0; e < ne; ++e) {
        const auto& oct = rm.elems[e];
        const std::uint32_t s = oct.size();
        int idx[DIM];
        for (int i = 0; i < kNpe; ++i) {
          int t = i;
          Key k;
          for (int d = 0; d < DIM; ++d) {
            idx[d] = t % kP1;
            t /= kP1;
            k[d] = oct.x[d] * std::uint32_t(P) + std::uint32_t(idx[d]) * s;
          }
          all[e * kNpe + i] = k;
        }
      }
      rs.keys = all;
      std::sort(rs.keys.begin(), rs.keys.end());
      rs.keys.erase(std::unique(rs.keys.begin(), rs.keys.end()),
                    rs.keys.end());
      rs.elemNodes.resize(ne * kNpe);
      for (std::size_t i = 0; i < all.size(); ++i) {
        const auto it =
            std::lower_bound(rs.keys.begin(), rs.keys.end(), all[i]);
        rs.elemNodes[i] =
            static_cast<std::uint32_t>(it - rs.keys.begin());
      }
      for (std::uint32_t i = 0; i < rs.keys.size(); ++i)
        sharers[rs.keys[i]].push_back({r, i});

      // Level-sorted traversal + uniform-level batches (mirrors
      // buildElemPlan, over ALL elements — the mesh is hanging-free).
      rs.order.resize(ne);
      for (std::size_t e = 0; e < ne; ++e)
        rs.order[e] = static_cast<std::uint32_t>(e);
      std::stable_sort(rs.order.begin(), rs.order.end(),
                       [&rm](std::uint32_t a, std::uint32_t b) {
                         return rm.elems[a].level < rm.elems[b].level;
                       });
      std::size_t i = 0;
      while (i < ne) {
        const Level lvl = rm.elems[rs.order[i]].level;
        std::size_t j = i;
        while (j < ne && j - i < kMatvecBatch &&
               rm.elems[rs.order[j]].level == lvl)
          ++j;
        rs.batches.push_back({static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j), lvl});
        i = j;
      }
      rs.batchNodes.resize(ne * kNpe);
      for (std::size_t slot = 0; slot < ne; ++slot)
        for (int a = 0; a < kNpe; ++a)
          rs.batchNodes[slot * kNpe + a] =
              rs.elemNodes[std::size_t(rs.order[slot]) * kNpe + a];
      rs.batchNodesT.resize(ne * kNpe);
      for (const ElemPlanBatch& b : rs.batches) {
        const std::size_t m = b.end - b.begin;
        std::uint32_t* bt = &rs.batchNodesT[std::size_t(b.begin) * kNpe];
        const std::uint32_t* bn = &rs.batchNodes[std::size_t(b.begin) * kNpe];
        for (std::size_t ei = 0; ei < m; ++ei)
          for (int a = 0; a < kNpe; ++a)
            bt[std::size_t(a) * m + ei] = bn[ei * kNpe + a];
      }

      // p -> 1 embedding weights from each node's first containing element.
      rs.pNode.assign(rs.keys.size() * kC, 0);
      rs.pW.assign(rs.keys.size() * kC, 0.0);
      std::vector<char> have(rs.keys.size(), 0);
      for (std::size_t e = 0; e < ne; ++e) {
        const std::uint32_t* corners =
            &rm.plan.pureNodes[std::size_t(rm.plan.slot[e]) * kC];
        for (int i = 0; i < kNpe; ++i) {
          const std::uint32_t node = rs.elemNodes[e * kNpe + i];
          if (have[node]) continue;
          have[node] = 1;
          int t = i;
          VecN<DIM> xi;
          for (int d = 0; d < DIM; ++d) {
            xi[d] = Real(t % kP1) / Real(P);
            t /= kP1;
          }
          for (int c = 0; c < kC; ++c) {
            rs.pNode[std::size_t(node) * kC + c] = corners[c];
            rs.pW[std::size_t(node) * kC + c] = shape<DIM>(c, xi);
          }
        }
      }
    }
    // Accumulation groups (>1 sharer) + ownership (lowest sharer rank).
    for (int r = 0; r < p; ++r)
      ranks_[r].owned.assign(ranks_[r].keys.size(), 1);
    for (const auto& [key, members] : sharers) {
      (void)key;
      if (members.size() < 2) continue;
      groups_.push_back(members);
      for (std::size_t m = 1; m < members.size(); ++m)
        ranks_[members[m].first].owned[members[m].second] = 0;
    }
  }

  const Mesh<DIM>& mesh() const { return *mesh_; }
  int nRanks() const { return static_cast<int>(ranks_.size()); }
  const RankSpace& rank(int r) const { return ranks_[r]; }

  Field makeField() const {
    Field f(ranks_.size());
    for (std::size_t r = 0; r < ranks_.size(); ++r)
      f[r].assign(ranks_[r].nNodes(), 0.0);
    return f;
  }

  /// Physical coordinates of node i on rank r.
  VecN<DIM> nodeCoords(int r, std::uint32_t i) const {
    VecN<DIM> x;
    for (int d = 0; d < DIM; ++d)
      x[d] = static_cast<Real>(ranks_[r].keys[i][d]) /
             (static_cast<Real>(kMaxCoord) * P);
    return x;
  }

  /// Sums every sharing group's copies and writes the total back to all
  /// members (fixed group / member order — deterministic, and the result
  /// is consistent: every copy of a node holds the same value).
  void accumulate(Field& f) const {
    for (const auto& g : groups_) {
      Real sum = 0;
      for (const auto& [r, i] : g) sum += f[r][i];
      for (const auto& [r, i] : g) f[r][i] = sum;
    }
  }

  /// y = (massCoef * M + stiffCoef * K) x over the degree-P space, via
  /// per-level dense tensor operators applied as batched SIMD panel GEMMs
  /// (the default engine — at p <= 2 the dense panels beat the factored
  /// kernel; see tensor_kernels.hpp). x must be consistent; y ends
  /// consistent.
  void matvec(const Field& x, Field& y, Real massCoef, Real stiffCoef,
              SimdIsa isa = simdIsa()) const {
    if (static_cast<int>(y.size()) != nRanks()) y.resize(nRanks());
    PanelBuf xbuf, ybuf;
    const std::size_t cap =
        std::size_t(kNpe) * padCols(int(kMatvecBatch));
    Real* X = xbuf.ensure(cap);
    Real* Y = ybuf.ensure(cap);
    for (int r = 0; r < nRanks(); ++r) {
      const RankSpace& rs = ranks_[r];
      const RankMesh<DIM>& rm = mesh_->rank(r);
      y[r].assign(rs.nNodes(), 0.0);
      std::array<std::array<Real, std::size_t(kNpe) * kNpe>, kMaxLevel + 1>&
          ops = levelOps(massCoef, stiffCoef);
      for (const ElemPlanBatch& b : rs.batches) {
        const int m = static_cast<int>(b.end - b.begin);
        const int colsPad = padCols(m);
        const Real* A = ops[b.level].data();
        (void)rm;
        gatherPanelT(x[r].data(),
                     &rs.batchNodesT[std::size_t(b.begin) * kNpe], kNpe, m,
                     1, colsPad, X);
        panelGemm(isa, A, kNpe, X, Y, m, colsPad);
        scatterAddPanel(Y, &rs.batchNodes[std::size_t(b.begin) * kNpe], kNpe,
                        m, 1, colsPad, y[r].data());
      }
    }
    accumulate(y);
  }

  /// Same operator through the sum-factorized per-element kernel — no
  /// dense elemental matrix is ever formed. Agrees with matvec() to
  /// roundoff (~1e-13 rel; different summation order).
  void matvecFactored(const Field& x, Field& y, Real massCoef,
                      Real stiffCoef) const {
    if (static_cast<int>(y.size()) != nRanks()) y.resize(nRanks());
    Real in[kNpe], out[kNpe];
    for (int r = 0; r < nRanks(); ++r) {
      const RankSpace& rs = ranks_[r];
      const RankMesh<DIM>& rm = mesh_->rank(r);
      y[r].assign(rs.nNodes(), 0.0);
      for (std::size_t slot = 0; slot < rm.nElems(); ++slot) {
        const std::uint32_t* nodes = &rs.batchNodes[slot * kNpe];
        for (int a = 0; a < kNpe; ++a) in[a] = x[r][nodes[a]];
        tensorApplyHelmholtz<DIM, P>(
            rm.elems[rs.order[slot]].physSize(), massCoef, stiffCoef, in,
            out);
        for (int a = 0; a < kNpe; ++a) y[r][nodes[a]] += out[a];
      }
    }
    accumulate(y);
  }

  /// Assembled diagonal of the same operator (Jacobi smoother seed),
  /// consistent across ranks.
  Field diagonal(Real massCoef, Real stiffCoef) const {
    Field d = makeField();
    for (int r = 0; r < nRanks(); ++r) {
      const RankSpace& rs = ranks_[r];
      auto& ops = levelOps(massCoef, stiffCoef);
      for (std::size_t slot = 0; slot < rs.order.size(); ++slot) {
        const Level lvl =
            mesh_->rank(r).elems[rs.order[slot]].level;
        const Real* A = ops[lvl].data();
        const std::uint32_t* nodes = &rs.batchNodes[slot * kNpe];
        for (int a = 0; a < kNpe; ++a)
          d[r][nodes[a]] += A[a * kNpe + a];
      }
    }
    accumulate(d);
    return d;
  }

  /// Prolongation from the mesh's p = 1 nodal space: fine[i] = sum_c
  /// w_c * coarse[corner_c]. Local per rank; a consistent coarse field
  /// yields a consistent fine field.
  void prolongate(const Field& coarse, Field& fine) const {
    if (static_cast<int>(fine.size()) != nRanks()) fine.resize(nRanks());
    for (int r = 0; r < nRanks(); ++r) {
      const RankSpace& rs = ranks_[r];
      fine[r].resize(rs.nNodes());
      for (std::size_t i = 0; i < rs.nNodes(); ++i) {
        Real acc = 0;
        for (int c = 0; c < kC; ++c)
          acc += rs.pW[i * kC + c] * coarse[r][rs.pNode[i * kC + c]];
        fine[r][i] = acc;
      }
    }
  }

  /// Restriction R = P^T to the mesh's p = 1 nodal space: each globally
  /// unique fine node (owned copies only) scatters w_c * fine[i] to its
  /// element corners, then Mesh::accumulate makes the result consistent.
  void restrictTr(const Field& fine, Field& coarse) const {
    if (static_cast<int>(coarse.size()) != nRanks())
      coarse.resize(nRanks());
    for (int r = 0; r < nRanks(); ++r) {
      const RankSpace& rs = ranks_[r];
      coarse[r].assign(mesh_->rank(r).nNodes(), 0.0);
      for (std::size_t i = 0; i < rs.nNodes(); ++i) {
        if (!rs.owned[i]) continue;
        const Real v = fine[r][i];
        for (int c = 0; c < kC; ++c)
          coarse[r][rs.pNode[i * kC + c]] += rs.pW[i * kC + c] * v;
      }
    }
    mesh_->accumulate(coarse, 1);
  }

 private:
  /// Per-(massCoef, stiffCoef) level table of dense tensor operators.
  /// Rebuilt when the coefficients change (the p-MG example uses one pair).
  std::array<std::array<Real, std::size_t(kNpe) * kNpe>, kMaxLevel + 1>&
  levelOps(Real massCoef, Real stiffCoef) const {
    if (!opsValid_ || opsMass_ != massCoef || opsStiff_ != stiffCoef) {
      for (auto& a : levelOps_) a.fill(0.0);
      opsBuilt_.fill(false);
      opsMass_ = massCoef;
      opsStiff_ = stiffCoef;
      opsValid_ = true;
    }
    for (int r = 0; r < nRanks(); ++r)
      for (const ElemPlanBatch& b : ranks_[r].batches)
        if (!opsBuilt_[b.level]) {
          const Real h = static_cast<Real>(std::uint32_t(kMaxCoord) >>
                                           b.level) /
                         kMaxCoord;
          tensorAssembleDense<DIM, P>(h, opsMass_, opsStiff_,
                                      levelOps_[b.level].data());
          opsBuilt_[b.level] = true;
        }
    return levelOps_;
  }

  const Mesh<DIM>* mesh_;
  std::vector<RankSpace> ranks_;
  std::vector<std::vector<std::pair<int, std::uint32_t>>> groups_;
  mutable std::array<std::array<Real, std::size_t(kNpe) * kNpe>,
                     kMaxLevel + 1>
      levelOps_{};
  mutable std::array<bool, kMaxLevel + 1> opsBuilt_{};
  mutable Real opsMass_ = 0, opsStiff_ = 0;
  mutable bool opsValid_ = false;
};

/// la::ksp Space over PSpace fields: pointwise ops touch every copy (so
/// consistent fields stay consistent), reductions count owned nodes once.
template <int DIM, int P>
class PSpaceLa {
 public:
  using V = Field;
  explicit PSpaceLa(const PSpace<DIM, P>& ps) : ps_(&ps) {}

  V zeros() const { return ps_->makeField(); }
  void reshape(V& y) const {
    if (static_cast<int>(y.size()) != ps_->nRanks())
      y.resize(ps_->nRanks());
    for (int r = 0; r < ps_->nRanks(); ++r) {
      const std::size_t want = ps_->rank(r).nNodes();
      if (y[r].size() != want) y[r].assign(want, 0.0);
    }
  }
  Real dot(const V& a, const V& b) const {
    Real acc = 0;
    for (int r = 0; r < ps_->nRanks(); ++r) {
      const auto& owned = ps_->rank(r).owned;
      for (std::size_t i = 0; i < owned.size(); ++i)
        if (owned[i]) acc += a[r][i] * b[r][i];
    }
    return acc;
  }
  Real norm(const V& a) const { return std::sqrt(dot(a, a)); }
  void copy(const V& src, V& dst) const { dst = src; }
  void axpy(V& y, Real a, const V& x) const {
    for (std::size_t r = 0; r < y.size(); ++r)
      for (std::size_t i = 0; i < y[r].size(); ++i) y[r][i] += a * x[r][i];
  }
  void aypx(V& y, Real a, const V& x) const {
    for (std::size_t r = 0; r < y.size(); ++r)
      for (std::size_t i = 0; i < y[r].size(); ++i)
        y[r][i] = a * y[r][i] + x[r][i];
  }
  void scale(V& y, Real a) const {
    for (auto& yr : y)
      for (Real& v : yr) v *= a;
  }
  void setZero(V& y) const {
    for (auto& yr : y)
      for (Real& v : yr) v = 0.0;
  }
  void sub(const V& x, const V& z, V& y) const {
    reshape(y);
    for (std::size_t r = 0; r < y.size(); ++r)
      for (std::size_t i = 0; i < y[r].size(); ++i)
        y[r][i] = x[r][i] - z[r][i];
  }

 private:
  const PSpace<DIM, P>* ps_;
};

/// Two-level p-multigrid preconditioner for (massCoef * M + stiffCoef * K)
/// on a PSpace: damped-Jacobi pre/post smoothing on the degree-P diagonal
/// wrapped around a p = 1 coarse correction through `coarsePc` (typically
/// la::Gmg's preconditioner on the same mesh — the full p-MG + h-GMG
/// stack). Restriction is the exact transpose of the multilinear embedding
/// and the smoothing is symmetric, so the composition is exactly as
/// symmetric as `coarsePc`: with a symmetric coarse preconditioner
/// (e.g. Jacobi) CG is safe; with la::Gmg — whose V-cycle restricts by
/// injection, not prolongation-transpose, and runs an inner coarse Krylov —
/// the composition is mildly nonsymmetric/nonlinear and the outer solve
/// should be (right-preconditioned) GMRES, which converges
/// mesh-independently (see examples/poisson_p2.cpp; plain CG floors near
/// rel res ~1e-8).
template <int DIM, int P>
la::LinOp<Field> makePMultigridPc(const PSpace<DIM, P>& ps, Real massCoef,
                                  Real stiffCoef, la::LinOp<Field> coarsePc,
                                  Real omega = 0.6,
                                  SimdIsa isa = simdIsa()) {
  struct State {
    Field diag, Az, rc, zc, corr;
  };
  auto st = std::make_shared<State>();
  return [st, &ps, massCoef, stiffCoef, coarsePc = std::move(coarsePc), omega,
          isa](const Field& r, Field& z) {
    if (st->diag.empty()) st->diag = ps.diagonal(massCoef, stiffCoef);
    const int p = ps.nRanks();
    if (static_cast<int>(z.size()) != p) z.resize(p);
    // Pre-smooth from zero: z = omega * D^-1 r.
    for (int rk = 0; rk < p; ++rk) {
      z[rk].resize(r[rk].size());
      for (std::size_t i = 0; i < r[rk].size(); ++i)
        z[rk][i] = omega * r[rk][i] / st->diag[rk][i];
    }
    // Coarse correction through the p = 1 space.
    ps.matvec(z, st->Az, massCoef, stiffCoef, isa);
    for (int rk = 0; rk < p; ++rk)
      for (std::size_t i = 0; i < r[rk].size(); ++i)
        st->Az[rk][i] = r[rk][i] - st->Az[rk][i];
    ps.restrictTr(st->Az, st->rc);
    coarsePc(st->rc, st->zc);
    ps.prolongate(st->zc, st->corr);
    for (int rk = 0; rk < p; ++rk)
      for (std::size_t i = 0; i < z[rk].size(); ++i)
        z[rk][i] += st->corr[rk][i];
    // Post-smooth: z += omega * D^-1 (r - A z).
    ps.matvec(z, st->Az, massCoef, stiffCoef, isa);
    for (int rk = 0; rk < p; ++rk)
      for (std::size_t i = 0; i < z[rk].size(); ++i)
        z[rk][i] += omega * (r[rk][i] - st->Az[rk][i]) / st->diag[rk][i];
  };
}

}  // namespace pt::fem
