// Vector-space operations over distributed nodal Fields.
//
// Pointwise operations are applied to every local copy (owned and ghost), so
// consistent fields stay consistent without communication; reductions count
// each global node exactly once via the mesh ownership.
//
// Threading contract (mirrors the MATVEC engine, DESIGN.md §8/§9): every
// kernel routes through support::ThreadPool with static contiguous
// partitions. Pointwise ops are elementwise-independent, so the threaded
// path is bit-identical to serial at any thread count. Reductions
// (dot/norm/ownedSum/axpyNorm2) accumulate one partial per partition and
// combine them in fixed partition order, so they are deterministic at a
// fixed thread count; ranks below kVecThreadMin elements always take the
// serial path, which is bit-identical to the pre-threading code. The
// simulated-machine work charges are independent of the thread count.
//
// All kernels write into existing storage and allocate nothing in steady
// state (reduction scratch is a mutable member, sized once); this is what
// the KSP workspace pooling in ksp.hpp relies on. Like the ThreadPool it
// wraps, a FieldSpace's mutable scratch makes reductions single-coordinator:
// concurrent reductions on one FieldSpace from two threads are a caller bug.
#pragma once

#include <chrono>
#include <cmath>
#include <functional>

#include "mesh/mesh.hpp"
#include "obs/phase.hpp"
#include "support/thread_pool.hpp"

namespace pt::la {

/// Per-rank element count below which vector kernels stay serial. Keeps
/// small solves bit-identical to the historical serial loops and avoids
/// fork-join overhead where a memory-bound loop can't amortize it.
inline constexpr std::size_t kVecThreadMin = 16384;

template <int DIM>
class FieldSpace {
 public:
  using V = Field;

  FieldSpace(const Mesh<DIM>& mesh, int ndof) : mesh_(&mesh), ndof_(ndof) {}

  const Mesh<DIM>& mesh() const { return *mesh_; }
  int ndof() const { return ndof_; }

  V zeros() const { return mesh_->makeField(ndof_); }

  /// Resizes y to this space's shape (zero-filling only ranks that actually
  /// change size). No-op — and no allocation — when y already conforms,
  /// which is what makes pooled KSP workspaces allocation-free in steady
  /// state while staying safe if a stale vector leaks past a remesh.
  void reshape(V& y) const {
    const int p = mesh_->nRanks();
    if (static_cast<int>(y.size()) != p) y.resize(p);
    for (int r = 0; r < p; ++r) {
      const std::size_t want = mesh_->rank(r).nNodes() * ndof_;
      if (y[r].size() != want) y[r].assign(want, 0.0);
    }
  }

  /// Accumulating phase for all vector-op time spent through this space
  /// (solver phase breakdowns). Pass nullptr to detach. The phase is only
  /// touched at the outermost vector-op boundary on the coordinator; the
  /// in-flight begin timestamp lives in this space (coordinator-only, like
  /// all its mutable scratch), so the shared Phase sees only atomic adds.
  void attachVecTimer(obs::Phase* t) const { vecPhase_ = t; }

  Real dot(const V& a, const V& b) const {
    VecScope scope(*this);
    const int p = mesh_->nRanks();
    auto& part = rankScratch();
    for (int r = 0; r < p; ++r) {
      const auto& rm = mesh_->rank(r);
      part[r] = reduceOwned(rm, r, [&](std::size_t i) {
        return a[r][i] * b[r][i];
      });
      mesh_->comm().chargeWork(r, 2.0 * ndof_ * rm.nNodes());
    }
    return mesh_->comm().allreduceSum(part);
  }

  Real norm(const V& a) const { return std::sqrt(dot(a, a)); }

  /// Sum of owned entries: bitwise equal to dot(ones, a) without
  /// materializing the ones field (1.0 * v == v exactly). Charges the same
  /// work as the dot it replaces so simulated timings are unchanged.
  Real ownedSum(const V& a) const {
    VecScope scope(*this);
    const int p = mesh_->nRanks();
    auto& part = rankScratch();
    for (int r = 0; r < p; ++r) {
      const auto& rm = mesh_->rank(r);
      part[r] = reduceOwned(rm, r, [&](std::size_t i) { return a[r][i]; });
      mesh_->comm().chargeWork(r, 2.0 * ndof_ * rm.nNodes());
    }
    return mesh_->comm().allreduceSum(part);
  }

  /// Copies src into dst's existing storage (resizing only on shape change,
  /// e.g. first use of a pooled vector or after a remesh).
  void copy(const V& src, V& dst) const {
    VecScope scope(*this);
    const int p = mesh_->nRanks();
    if (static_cast<int>(dst.size()) != p) dst.resize(p);
    for (int r = 0; r < p; ++r) {
      if (dst[r].size() != src[r].size()) dst[r].resize(src[r].size());
      const Real* s = src[r].data();
      Real* d = dst[r].data();
      rankFor(src[r].size(), [=](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) d[i] = s[i];
      });
    }
  }

  /// y += a * x
  void axpy(V& y, Real a, const V& x) const {
    VecScope scope(*this);
    for (int r = 0; r < mesh_->nRanks(); ++r) {
      const Real* xs = x[r].data();
      Real* ys = y[r].data();
      rankFor(y[r].size(), [=](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ys[i] += a * xs[i];
      });
      mesh_->comm().chargeWork(r, 2.0 * y[r].size());
    }
  }

  /// Fused y += a * x followed by dot(y, y), in one pass over y. The serial
  /// path is bitwise identical to axpy-then-dot: components are updated in
  /// the same order they are read back, and the owned-node accumulation
  /// visits nodes in the same order as dot. Charges the work of both ops.
  Real axpyNorm2(V& y, Real a, const V& x) const {
    VecScope scope(*this);
    const int p = mesh_->nRanks();
    auto& part = rankScratch();
    for (int r = 0; r < p; ++r) {
      const auto& rm = mesh_->rank(r);
      const Real* xs = x[r].data();
      Real* ys = y[r].data();
      const int nd = ndof_;
      part[r] = reduceNodes(rm, r, [=](std::size_t li, bool owned, Real& acc) {
        for (int d = 0; d < nd; ++d) {
          const std::size_t i = li * nd + d;
          ys[i] += a * xs[i];
          if (owned) acc += ys[i] * ys[i];
        }
      });
      mesh_->comm().chargeWork(r, 2.0 * y[r].size());
      mesh_->comm().chargeWork(r, 2.0 * nd * rm.nNodes());
    }
    return mesh_->comm().allreduceSum(part);
  }

  /// y = a * y + x
  void aypx(V& y, Real a, const V& x) const {
    VecScope scope(*this);
    for (int r = 0; r < mesh_->nRanks(); ++r) {
      const Real* xs = x[r].data();
      Real* ys = y[r].data();
      rankFor(y[r].size(), [=](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ys[i] = a * ys[i] + xs[i];
      });
    }
  }

  void scale(V& y, Real a) const {
    VecScope scope(*this);
    for (int r = 0; r < mesh_->nRanks(); ++r) {
      Real* ys = y[r].data();
      rankFor(y[r].size(), [=](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ys[i] *= a;
      });
    }
  }

  void setZero(V& y) const {
    VecScope scope(*this);
    for (int r = 0; r < mesh_->nRanks(); ++r) {
      Real* ys = y[r].data();
      rankFor(y[r].size(), [=](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ys[i] = 0.0;
      });
    }
  }

  /// y = x - z (pointwise)
  void sub(const V& x, const V& z, V& y) const {
    VecScope scope(*this);
    for (int r = 0; r < mesh_->nRanks(); ++r) {
      const Real* xs = x[r].data();
      const Real* zs = z[r].data();
      Real* ys = y[r].data();
      rankFor(y[r].size(), [=](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ys[i] = xs[i] - zs[i];
      });
    }
  }

  /// Pointwise multiply: y[i] = d[i] * x[i] (e.g. Jacobi preconditioning).
  void pointwiseMult(const V& d, const V& x, V& y) const {
    VecScope scope(*this);
    for (int r = 0; r < mesh_->nRanks(); ++r) {
      const Real* ds = d[r].data();
      const Real* xs = x[r].data();
      Real* ys = y[r].data();
      rankFor(y[r].size(), [=](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ys[i] = ds[i] * xs[i];
      });
    }
  }

 private:
  // Runs body(b, e) over [0, n): inline when the rank is small or the pool
  // is serial, else via static partitions (elementwise kernels only — the
  // partition index is irrelevant to the result).
  template <typename Body>
  void rankFor(std::size_t n, Body&& body) const {
    auto& pool = support::ThreadPool::instance();
    if (n < kVecThreadMin || pool.threads() <= 1) {
      body(std::size_t{0}, n);
      return;
    }
    pool.parallelFor(n, [&](int, std::size_t b, std::size_t e) { body(b, e); });
  }

  // Owned-node reduction over one rank: nodeAcc(li, owned, acc) folds node
  // li's contribution into a running accumulator, element by element, so the
  // serial path associates left-to-right exactly like Mesh::dot. The
  // threaded path keeps one partial per partition and combines them in
  // partition order (deterministic at a fixed thread count).
  template <typename NodeAcc>
  Real reduceNodes(const RankMesh<DIM>& rm, int r, NodeAcc&& nodeAcc) const {
    const std::size_t n = rm.nNodes();
    auto& pool = support::ThreadPool::instance();
    if (n * ndof_ < kVecThreadMin || pool.threads() <= 1) {
      Real acc = 0;
      for (std::size_t li = 0; li < n; ++li)
        nodeAcc(li, rm.nodeOwner[li] == r, acc);
      return acc;
    }
    const int parts = pool.threads();
    if (static_cast<int>(partials_.size()) < parts) partials_.resize(parts);
    for (int pi = 0; pi < parts; ++pi) partials_[pi] = 0.0;
    pool.parallelFor(n, [&](int part, std::size_t b, std::size_t e) {
      Real acc = 0;
      for (std::size_t li = b; li < e; ++li)
        nodeAcc(li, rm.nodeOwner[li] == r, acc);
      partials_[part] = acc;
    });
    Real acc = 0;
    for (int pi = 0; pi < parts; ++pi) acc += partials_[pi];
    return acc;
  }

  // Owned-node reduction where the per-entry value is independent of
  // ownership (dot/ownedSum): skips non-owned nodes like Mesh::dot.
  template <typename EntryVal>
  Real reduceOwned(const RankMesh<DIM>& rm, int r, EntryVal&& entryVal) const {
    const int nd = ndof_;
    return reduceNodes(rm, r, [&](std::size_t li, bool owned, Real& acc) {
      if (owned)
        for (int d = 0; d < nd; ++d) acc += entryVal(li * nd + d);
    });
  }

  sim::PerRank<Real>& rankScratch() const {
    const std::size_t p = static_cast<std::size_t>(mesh_->nRanks());
    if (rankPart_.size() != p) rankPart_.resize(p);
    for (auto& v : rankPart_) v = 0.0;
    return rankPart_;
  }

  // Re-entrancy-aware timing scope: only the outermost vector op on this
  // space measures into the attached phase (norm() calls dot(), axpyNorm2
  // charges as two ops but runs as one). The begin timestamp is a member of
  // the space, not the shared Phase, so concurrent spaces never race.
  struct VecScope {
    explicit VecScope(const FieldSpace& s) : s_(s) {
      if (s_.vecPhase_ && s_.vecDepth_++ == 0)
        s_.vecBegin_ = std::chrono::steady_clock::now();
    }
    ~VecScope() {
      if (s_.vecPhase_ && --s_.vecDepth_ == 0)
        s_.vecPhase_->add(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - s_.vecBegin_)
                              .count());
    }
    VecScope(const VecScope&) = delete;
    VecScope& operator=(const VecScope&) = delete;
    const FieldSpace& s_;
  };

  const Mesh<DIM>* mesh_;
  int ndof_;
  // Reduction scratch, reused across calls so dot/norm allocate nothing in
  // steady state. Mutable + unsynchronized: reductions are coordinator-only.
  mutable sim::PerRank<Real> rankPart_;
  mutable std::vector<Real> partials_;
  mutable obs::Phase* vecPhase_ = nullptr;
  mutable int vecDepth_ = 0;
  mutable std::chrono::steady_clock::time_point vecBegin_{};
};

/// Linear operator and preconditioner signature: y = A(x). It is the only
/// preconditioner shape: one that needs setup (e.g. la::Gmg's eigenvalue
/// bounds) runs it inside its first apply.
template <typename V>
using LinOp = std::function<void(const V&, V&)>;

}  // namespace pt::la
