// Geometric multigrid preconditioner on octree hierarchies — the paper's
// stated future work ("Scalable solvers, like Geometric multigrid (GMG),
// promise to yield a better solve time but rely on optimized algorithms for
// creating different mesh hierarchies and MATVEC operation ... we plan to
// utilize GMG to improve the solve time, specifically for the variable
// coefficient pressure Poisson problem").
//
// The hierarchy is built with the library's own machinery: each coarser
// level is Algorithm-7 coarsening of the previous tree (one level,
// consensus-free since every leaf votes), re-balanced and re-partitioned;
// inter-level transfer uses the multi-level inter-grid machinery
// (prolongation = coarse-to-fine interpolation, restriction = injection
// with the 2^DIM weak-residual scaling). The hierarchy (trees + meshes) is
// split out as GmgHierarchy so a solver can build it once per mesh and
// cache it across solves and no-op remeshes; the Gmg object itself holds
// only the per-coefficient discretization (level operators, smoother
// diagonals, eigenvalue bounds) and is cheap to rebuild when coefficients
// change.
//
// Smoothers: matrix-free Chebyshev(k) over the block-diagonally
// preconditioned operator D^-1 A (eigenvalue upper bound per level via a
// few deterministic power iterations), or damped block-Jacobi. The
// smoother's D^-1 reuses the pre-factorized node-block machinery from
// la/pc.hpp. V-cycle vector updates are plain serial loops and the
// eigenvalue estimate uses Mesh::dot, so a V-cycle is bitwise identical
// for any thread count whenever the level operators are (the chns level
// operators route through fem::matvecCoefBlocks, which guarantees it).
//
// The coarse solve is CG (or BiCGStab for nonsymmetric systems) with the
// coarse level's block-Jacobi as preconditioner; non-convergence within
// the bounded iteration cap raises the typed GmgCoarseSolveError (counted
// in the metrics registry) instead of silently returning a stagnated
// correction.
#pragma once

#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "amr/par_coarsen.hpp"
#include "fem/elem_ops.hpp"
#include "fem/matvec.hpp"
#include "fem/matvec_batched.hpp"
#include "intergrid/transfer.hpp"
#include "la/ksp.hpp"
#include "la/pc.hpp"
#include "la/space.hpp"
#include "mesh/mesh.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "octree/balance.hpp"
#include "support/check.hpp"

namespace pt::la {

/// Raised when the V-cycle's coarse Krylov solve exhausts its bounded
/// iteration cap without converging — a preconditioner silently returning
/// a stagnated coarse correction poisons the outer solve in ways that are
/// far harder to diagnose than this error.
struct GmgCoarseSolveError : CheckError {
  using CheckError::CheckError;
};

enum class GmgSmoother {
  kChebyshev,    ///< Chebyshev(k) on D_block^-1 A (default)
  kBlockJacobi,  ///< damped node-block Jacobi (factored blocks)
};

/// Smoother constants shared by every hierarchy: sweeps before and after
/// the coarse correction, and the block-Jacobi damping.
inline constexpr int kGmgPreSmooth = 2;
inline constexpr int kGmgPostSmooth = 2;
inline constexpr Real kGmgJacobiOmega = 0.7;
/// Chebyshev interval [kGmgEigLoFrac*lam, kGmgEigHiSafety*lam] around the
/// power-iteration estimate lam of the largest eigenvalue of D^-1 A.
inline constexpr int kGmgPowerIterations = 8;
inline constexpr Real kGmgEigLoFrac = 0.25;
inline constexpr Real kGmgEigHiSafety = 1.1;

struct GmgOptions {
  int levels = 3;  ///< including the fine level
  GmgSmoother smoother = GmgSmoother::kChebyshev;
  KspOptions coarseSolve{.rtol = 1e-8, .maxIterations = 200};
  bool coarseBicgstab = false;  ///< nonsymmetric coarse systems
  Level minLevel = 1;           ///< do not coarsen octants below this
};

/// Per-level operator + smoother data, built by the caller's factory so
/// variable coefficients (mobility, 1/rho(phi), frozen CH-Jacobian tables)
/// can be re-discretized per level.
template <int DIM>
struct GmgLevelOps {
  LinOp<Field> op;
  /// Node-block diagonal of op: nNodes * ndof^2 per rank (for ndof == 1
  /// this is the point diagonal, so pre-existing factories are unchanged).
  Field diag;
  int ndof = 1;
  /// Optional: 1.0 at constrained (Dirichlet) dofs, ndof-wide. Gmg replaces
  /// the diagonal blocks at masked dofs with identity rows (matching
  /// fem::dirichletOp-wrapped operators) and excludes them from the
  /// eigenvalue-estimation seed.
  Field mask;
  /// Optional null-space projection (e.g. remove the nodal mean for the
  /// singular Neumann pressure-Poisson operator); applied to the restricted
  /// right-hand side entering this level.
  std::function<void(Field&)> project;
};

template <int DIM>
using GmgOpFactory =
    std::function<GmgLevelOps<DIM>(const Mesh<DIM>&, int level)>;

/// Level-operator family from per-element ndof x ndof mass/stiffness
/// coefficient blocks (the frozen-coefficient form every chns level
/// operator reduces to): op routes through the batched panel-GEMM engine
/// (fem::matvecCoefBlocks — bitwise identical for any thread count), diag
/// is the matching node-block diagonal through the same hanging-consistent
/// assembly. The closures share ownership of the block tables.
///
/// The optional `cT` adds per-element convection blocks — DIM matrices per
/// element ([e][d][a*ndof+b]) mixed against the reference
/// convection-transpose operators T_d (scale h^(DIM-1)). Advective level
/// operators (the CH Jacobian under nonzero velocity) need this: without
/// it the V-cycle preconditions the wrong operator and Krylov solves stall
/// once transport dominates. The cT path runs through the generic indexed
/// engine (fem::matvecIndexed, also thread-count invariant); the smoother
/// diagonal deliberately keeps only the mass+stiffness part, matching the
/// historical block-Jacobi, so its factorization stays well-conditioned.
///
/// The batched engine's kernel tier is fem::simdIsa(), read once here.
template <int DIM>
GmgLevelOps<DIM> makeCoefBlockLevelOps(
    const Mesh<DIM>& mesh, int ndof,
    std::shared_ptr<const sim::PerRank<std::vector<Real>>> cM,
    std::shared_ptr<const sim::PerRank<std::vector<Real>>> cK,
    std::shared_ptr<const sim::PerRank<std::vector<Real>>> cT = nullptr) {
  GmgLevelOps<DIM> ops;
  ops.ndof = ndof;
  if (cT) {
    ops.op = [&mesh, ndof, cM, cK, cT](const Field& x, Field& y) {
      constexpr int kC = kNumChildren<DIM>;
      const auto& refM = fem::refMass<DIM>();
      const auto& refK = fem::refStiffness<DIM>();
      const auto& refT = fem::refConvection<DIM>();
      const int nd2 = ndof * ndof;
      fem::matvecIndexed<DIM>(
          mesh, x, y, ndof,
          [&](int r, std::size_t e, const Octant<DIM>& oct, const Real* in,
              Real* out) {
            const Real h = oct.physSize();
            Real jac = 1;
            for (int d = 0; d < DIM; ++d) jac *= h;
            const Real kscale = (DIM == 2) ? 1.0 : h;  // h^(DIM-2)
            const Real tscale = jac / h;               // h^(DIM-1)
            const Real* bM = (*cM)[r].data() + e * nd2;
            const Real* bK = (*cK)[r].data() + e * nd2;
            const Real* bT = (*cT)[r].data() + e * std::size_t(DIM) * nd2;
            Real zb[kC], mb[kC], kb[kC], tb[DIM][kC];
            for (int b = 0; b < ndof; ++b) {
              for (int i = 0; i < kC; ++i) zb[i] = in[i * ndof + b];
              for (int i = 0; i < kC; ++i) {
                Real am = 0, ak = 0;
                Real at[DIM] = {};
                for (int j = 0; j < kC; ++j) {
                  am += refM[i * kC + j] * zb[j];
                  ak += refK[i * kC + j] * zb[j];
                  for (int d = 0; d < DIM; ++d)
                    at[d] += refT[d][i * kC + j] * zb[j];
                }
                mb[i] = am;
                kb[i] = ak;
                for (int d = 0; d < DIM; ++d) tb[d][i] = at[d];
              }
              for (int a = 0; a < ndof; ++a) {
                const Real cm = bM[a * ndof + b] * jac;
                const Real ck = bK[a * ndof + b] * kscale;
                Real ct[DIM];
                for (int d = 0; d < DIM; ++d)
                  ct[d] = bT[d * nd2 + a * ndof + b] * tscale;
                for (int i = 0; i < kC; ++i) {
                  Real acc = cm * mb[i] + ck * kb[i];
                  for (int d = 0; d < DIM; ++d) acc += ct[d] * tb[d][i];
                  out[i * ndof + a] += acc;
                }
              }
            }
          });
    };
  } else {
    ops.op = [&mesh, ndof, cM, cK, isa = fem::simdIsa()](const Field& x,
                                                          Field& y) {
      fem::matvecCoefBlocks<DIM>(mesh, x, y, ndof, *cM, *cK, isa);
    };
  }
  const int nd2 = ndof * ndof;
  ops.diag = assembleDiagonalBlocks<DIM>(
      mesh, ndof,
      ElemMatIdxFn<DIM>([ndof, nd2, &bMv = *cM, &bKv = *cK](
                            int r, std::size_t e, const Octant<DIM>& oct,
                            Real* Ae) {
        constexpr int kC = kNumChildren<DIM>;
        const auto& refM = fem::refMass<DIM>();
        const auto& refK = fem::refStiffness<DIM>();
        const Real h = oct.physSize();
        Real jac = 1;
        for (int d = 0; d < DIM; ++d) jac *= h;
        const Real kscale = (DIM == 2) ? 1.0 : h;
        const int n = kC * ndof;
        const Real* bM = bMv[r].data() + e * nd2;
        const Real* bK = bKv[r].data() + e * nd2;
        for (int i = 0; i < kC; ++i)
          for (int j = 0; j < kC; ++j) {
            const Real M = refM[i * kC + j] * jac;
            const Real K = refK[i * kC + j] * kscale;
            for (int a = 0; a < ndof; ++a)
              for (int b = 0; b < ndof; ++b)
                Ae[(i * ndof + a) * n + (j * ndof + b)] =
                    bM[a * ndof + b] * M + bK[a * ndof + b] * K;
          }
      }));
  return ops;
}

/// The coarsened-tree hierarchy: geometry only (trees + meshes), no
/// coefficient data, so one build serves every solve on the same fine mesh.
/// Level 0 is the finest; it can alias a caller-owned mesh (the solver's
/// working mesh) so level-0 fields need no translation.
template <int DIM>
struct GmgHierarchy {
  const Mesh<DIM>* fine = nullptr;  ///< level 0 (non-owning view)
  std::unique_ptr<Mesh<DIM>> ownedFine;  ///< set when built from a bare tree
  std::vector<DistTree<DIM>> coarseTrees;  ///< levels 1..L-1
  std::vector<std::unique_ptr<Mesh<DIM>>> coarseMeshes;

  int numLevels() const {
    return 1 + static_cast<int>(coarseMeshes.size());
  }
  const Mesh<DIM>& meshAt(int l) const {
    return l == 0 ? *fine : *coarseMeshes[l - 1];
  }

  /// Coarsens `fineTree` up to `levels` times (every leaf votes one level
  /// coarser, floored at `minLevel`), stopping early when coarsening stops
  /// making the tree smaller. `fineMesh`, when given, becomes level 0
  /// without a rebuild; otherwise a fine mesh is built and owned here.
  static std::shared_ptr<const GmgHierarchy> build(
      sim::SimComm& comm, const DistTree<DIM>& fineTree,
      const Mesh<DIM>* fineMesh, int levels, Level minLevel) {
    PT_SPAN("gmg-hierarchy");
    auto h = std::make_shared<GmgHierarchy>();
    if (fineMesh) {
      h->fine = fineMesh;
    } else {
      h->ownedFine =
          std::make_unique<Mesh<DIM>>(Mesh<DIM>::build(comm, fineTree));
      h->fine = h->ownedFine.get();
    }
    const DistTree<DIM>* prev = &fineTree;
    for (int l = 1; l < levels; ++l) {
      sim::PerRank<std::vector<Level>> accept(comm.size());
      bool anyCoarsenable = false;
      for (int r = 0; r < comm.size(); ++r) {
        const auto& leaves = prev->localOf(r);
        accept[r].resize(leaves.size());
        for (std::size_t e = 0; e < leaves.size(); ++e) {
          accept[r][e] = static_cast<Level>(
              std::max<int>(minLevel, leaves[e].level - 1));
          anyCoarsenable = anyCoarsenable || accept[r][e] < leaves[e].level;
        }
      }
      if (!anyCoarsenable) break;
      DistTree<DIM> next(comm);
      next.locals() = parCoarsen(comm, prev->locals(), accept);
      balanceDistTree(next);
      next.repartition();
      if (next.globalCount() == prev->globalCount()) break;
      h->coarseTrees.push_back(std::move(next));
      h->coarseMeshes.push_back(std::make_unique<Mesh<DIM>>(
          Mesh<DIM>::build(comm, h->coarseTrees.back())));
      prev = &h->coarseTrees.back();
    }
    return h;
  }
};

template <int DIM>
class Gmg {
 public:
  using Options = GmgOptions;

  /// Discretizes every level of a prebuilt (typically cached) hierarchy
  /// with `factory`. Level 0 is the finest. `metrics`, when given, receives
  /// per-level apply histograms and the coarse-solve counters.
  Gmg(sim::SimComm& comm, std::shared_ptr<const GmgHierarchy<DIM>> hier,
      const GmgOpFactory<DIM>& factory, Options opt = {},
      obs::Registry* metrics = nullptr)
      : comm_(&comm),
        opt_(opt),
        hier_(std::move(hier)),
        metrics_(metrics) {
    PT_SPAN("gmg-discretize");
    const int L = std::min(hier_->numLevels(), std::max(1, opt_.levels));
    ops_.reserve(L);
    for (int l = 0; l < L; ++l)
      ops_.push_back(factory(hier_->meshAt(l), l));
    ndof_ = ops_[0].ndof;
    for (const auto& o : ops_)
      PT_CHECK_MSG(o.ndof == ndof_, "Gmg: per-level ndof mismatch");
    dinv_.reserve(L);
    for (int l = 0; l < L; ++l) {
      applyDirichletToDiag(l);
      // makeBlockJacobi consumes the blocks (factored in place); the raw
      // diag is not needed afterwards.
      dinv_.push_back(makeBlockJacobi(hier_->meshAt(l), ndof_,
                                      std::move(ops_[l].diag)));
    }
    // Per-level smoother workspace (allocated once; a V-cycle then runs
    // without allocations apart from the inter-grid transfers).
    for (int l = 0; l < L; ++l) {
      const Mesh<DIM>& m = hier_->meshAt(l);
      wsAx_.push_back(m.makeField(ndof_));
      wsR_.push_back(m.makeField(ndof_));
      wsT_.push_back(m.makeField(ndof_));
      wsD_.push_back(m.makeField(ndof_));
      wsB_.push_back(m.makeField(ndof_));
      wsX_.push_back(m.makeField(ndof_));
    }
  }

  /// Back-compat: builds a private hierarchy under `fineTree` first.
  Gmg(sim::SimComm& comm, const DistTree<DIM>& fineTree,
      const GmgOpFactory<DIM>& factory, Options opt = {},
      obs::Registry* metrics = nullptr)
      : Gmg(comm,
            GmgHierarchy<DIM>::build(comm, fineTree, nullptr, opt.levels,
                                     opt.minLevel),
            factory, opt, metrics) {}

  int numLevels() const { return static_cast<int>(ops_.size()); }
  const Mesh<DIM>& meshAt(int l) const { return hier_->meshAt(l); }
  const std::shared_ptr<const GmgHierarchy<DIM>>& hierarchy() const {
    return hier_;
  }

  /// One V-cycle z = M(r) on the fine level. z is conformed and zeroed.
  void apply(const Field& r, Field& z) {
    PT_SPAN("gmg-vcycle");
    setup();
    const Mesh<DIM>& m0 = hier_->meshAt(0);
    const int p = m0.nRanks();
    if (static_cast<int>(z.size()) != p) z.resize(p);
    for (int rk = 0; rk < p; ++rk)
      z[rk].assign(m0.rank(rk).nNodes() * ndof_, 0.0);
    if (metrics_) metrics_->counter("gmg.vcycles").inc();
    vcycle(0, r, z);
  }

  /// The solver-facing preconditioner handle. Captures `this`; the Gmg must
  /// outlive every use of the returned operator.
  LinOp<Field> preconditioner() {
    return [this](const Field& r, Field& z) { apply(r, z); };
  }

 private:
  /// Runs the deferred per-level eigenvalue estimation (Chebyshev only).
  /// Idempotent; apply() calls it before every V-cycle.
  void setup() {
    if (opt_.smoother != GmgSmoother::kChebyshev || !eig_.empty()) return;
    PT_SPAN("gmg-eig");
    eig_.resize(ops_.size(), 0.0);
    for (std::size_t l = 0; l < ops_.size(); ++l)
      eig_[l] = estimateEigUpper(static_cast<int>(l));
  }

  // ---- serial vector helpers (bitwise thread-count invariant) -----------

  static void subInto(const Field& a, const Field& b, Field& out) {
    for (std::size_t rk = 0; rk < out.size(); ++rk)
      for (std::size_t i = 0; i < out[rk].size(); ++i)
        out[rk][i] = a[rk][i] - b[rk][i];
  }
  static void addScaled(Field& y, Real s, const Field& x) {
    for (std::size_t rk = 0; rk < y.size(); ++rk)
      for (std::size_t i = 0; i < y[rk].size(); ++i)
        y[rk][i] += s * x[rk][i];
  }

  void applyDirichletToDiag(int l) {
    GmgLevelOps<DIM>& o = ops_[l];
    if (o.mask.empty()) return;
    const Mesh<DIM>& m = hier_->meshAt(l);
    const int nd = ndof_;
    for (int rk = 0; rk < m.nRanks(); ++rk) {
      const std::size_t nn = m.rank(rk).nNodes();
      for (std::size_t i = 0; i < nn; ++i)
        for (int d = 0; d < nd; ++d) {
          if (o.mask[rk][i * nd + d] == 0.0) continue;
          Real* blk = o.diag[rk].data() + i * nd * nd;
          for (int c = 0; c < nd; ++c) {
            blk[d * nd + c] = 0.0;  // identity row, decoupled column
            blk[c * nd + d] = 0.0;
          }
          blk[d * nd + d] = 1.0;
        }
    }
  }

  /// Power iteration for the largest eigenvalue of D^-1 A. The seed is a
  /// smooth function of the (globally consistent) node coordinates, so it
  /// is ghost-consistent by construction and identical for any partition of
  /// the same mesh; iterates use Mesh::dot, so the estimate is bitwise
  /// deterministic for any thread count.
  Real estimateEigUpper(int l) {
    const Mesh<DIM>& m = hier_->meshAt(l);
    const GmgLevelOps<DIM>& o = ops_[l];
    const int nd = ndof_;
    Field v = m.makeField(nd);
    for (int rk = 0; rk < m.nRanks(); ++rk) {
      const RankMesh<DIM>& rm = m.rank(rk);
      for (std::size_t i = 0; i < rm.nNodes(); ++i) {
        const auto c = nodeCoords(rm.nodeKeys[i]);
        // Coordinate-hashed noise: a smooth seed would take many more
        // iterations to surface the (oscillatory) top eigenvector. The hash
        // is a pure function of the global node position, so the seed is
        // ghost-consistent and identical for any partition/thread count.
        Real s = 0;
        for (int d = 0; d < DIM; ++d) s += (127.1 + 184.6 * d) * c[d];
        for (int d = 0; d < nd; ++d) {
          const Real h =
              std::sin(s + 0.7 * static_cast<Real>(d)) * 43758.5453;
          v[rk][i * nd + d] = h - std::floor(h) - 0.5;
        }
      }
      if (!o.mask.empty())
        for (std::size_t i = 0; i < rm.nNodes() * nd; ++i)
          if (o.mask[rk][i] != 0.0) v[rk][i] = 0.0;
    }
    Field& Av = wsAx_[l];
    Field& t = wsT_[l];
    Real lam = 1.0;
    Real nrm = std::sqrt(m.dot(v, v, nd));
    if (nrm < 1e-300) return lam;
    for (int rk = 0; rk < m.nRanks(); ++rk)
      for (Real& x : v[rk]) x /= nrm;
    for (int it = 0; it < kGmgPowerIterations; ++it) {
      o.op(v, Av);
      dinv_[l](Av, t);
      nrm = std::sqrt(m.dot(t, t, nd));
      if (nrm < 1e-300) break;
      lam = nrm;
      for (int rk = 0; rk < m.nRanks(); ++rk)
        for (std::size_t i = 0; i < v[rk].size(); ++i)
          v[rk][i] = t[rk][i] / nrm;
    }
    if (metrics_)
      metrics_->gauge("gmg.eig_l" + std::to_string(l)).set(lam);
    return lam;
  }

  /// Chebyshev(deg) on the interval [kGmgEigLoFrac, kGmgEigHiSafety] * lam
  /// of D^-1 A (the standard three-term recurrence; one operator
  /// application per degree). `xZero` skips the initial residual matvec.
  void smoothChebyshev(int l, const Field& b, Field& x, int deg,
                       bool xZero) {
    if (deg <= 0) return;
    const GmgLevelOps<DIM>& o = ops_[l];
    const Real lam = eig_[l];
    const Real hi = kGmgEigHiSafety * lam;
    const Real lo = kGmgEigLoFrac * lam;
    const Real theta = 0.5 * (hi + lo);
    const Real delta = 0.5 * (hi - lo);
    const Real sigma = theta / delta;
    Field& Ax = wsAx_[l];
    Field& r = wsR_[l];
    Field& t = wsT_[l];
    Field& d = wsD_[l];
    if (xZero) {
      for (std::size_t rk = 0; rk < r.size(); ++rk) r[rk] = b[rk];
    } else {
      o.op(x, Ax);
      subInto(b, Ax, r);
    }
    dinv_[l](r, t);
    const Real invTheta = 1.0 / theta;
    for (std::size_t rk = 0; rk < d.size(); ++rk)
      for (std::size_t i = 0; i < d[rk].size(); ++i)
        d[rk][i] = invTheta * t[rk][i];
    Real rho = 1.0 / sigma;
    for (int k = 1; k < deg; ++k) {
      addScaled(x, 1.0, d);
      o.op(d, Ax);
      addScaled(r, -1.0, Ax);
      const Real rhoNew = 1.0 / (2.0 * sigma - rho);
      dinv_[l](r, t);
      const Real a = rhoNew * rho;
      const Real c = 2.0 * rhoNew / delta;
      for (std::size_t rk = 0; rk < d.size(); ++rk)
        for (std::size_t i = 0; i < d[rk].size(); ++i)
          d[rk][i] = a * d[rk][i] + c * t[rk][i];
      rho = rhoNew;
    }
    addScaled(x, 1.0, d);
  }

  /// Damped block-Jacobi: x += kGmgJacobiOmega * D^-1 (b - A x) per sweep.
  void smoothBlockJacobi(int l, const Field& b, Field& x, int sweeps,
                         bool xZero) {
    const GmgLevelOps<DIM>& o = ops_[l];
    Field& Ax = wsAx_[l];
    Field& r = wsR_[l];
    Field& t = wsT_[l];
    for (int s = 0; s < sweeps; ++s) {
      if (xZero && s == 0) {
        for (std::size_t rk = 0; rk < r.size(); ++rk) r[rk] = b[rk];
      } else {
        o.op(x, Ax);
        subInto(b, Ax, r);
      }
      dinv_[l](r, t);
      addScaled(x, kGmgJacobiOmega, t);
    }
  }

  void smooth(int l, const Field& b, Field& x, int sweeps, bool xZero) {
    PT_SPAN("gmg-smooth");
    const auto t0 = obsNow();
    if (opt_.smoother == GmgSmoother::kChebyshev)
      smoothChebyshev(l, b, x, sweeps, xZero);
    else
      smoothBlockJacobi(l, b, x, sweeps, xZero);
    obsAdd("gmg.l" + std::to_string(l) + ".smooth_sec", t0);
  }

  void coarseSolve(int l, const Field& b, Field& x) {
    PT_SPAN("gmg-coarse");
    const auto t0 = obsNow();
    const Mesh<DIM>& m = hier_->meshAt(l);
    if (!coarseSpace_)
      coarseSpace_ = std::make_unique<FieldSpace<DIM>>(m, ndof_);
    // Singular (projected) level: run the Krylov solve fully deflated —
    // right-hand side, preconditioner output, and solution all projected.
    // Without the projected preconditioner, CG on the singular Neumann
    // operator drifts a null-space component into its search directions and
    // pAp can round to <= 0 (seen on the fig8 pressure Poisson at 20x
    // density contrast).
    const Field* bp = &b;
    LinOp<Field> pc = dinv_[l];
    if (ops_[l].project) {
      coarseB_ = b;
      ops_[l].project(coarseB_);
      bp = &coarseB_;
      pc = [this, l](const Field& r, Field& z) {
        dinv_[l](r, z);
        ops_[l].project(z);
      };
    }
    KspResult res =
        opt_.coarseBicgstab
            ? bicgstab(*coarseSpace_, ops_[l].op, *bp, x, opt_.coarseSolve,
                       &pc, &coarseWs_)
            : cg(*coarseSpace_, ops_[l].op, *bp, x, opt_.coarseSolve,
                 &pc, &coarseWs_);
    if (ops_[l].project) ops_[l].project(x);
    if (metrics_) {
      metrics_->histogram("gmg.coarse_iters").add(res.iterations);
      if (!res.converged) metrics_->counter("gmg.coarse_fail").inc();
    }
    if (!res.converged)
      throw GmgCoarseSolveError(
          "GMG coarse solve failed to converge: " +
          std::to_string(res.iterations) + " iterations (cap " +
          std::to_string(opt_.coarseSolve.maxIterations) +
          "), relative residual " + std::to_string(res.relResidual));
    obsAdd("gmg.coarse_sec", t0);
  }

  void vcycle(int l, const Field& b, Field& x) {
    const int coarsest = numLevels() - 1;
    if (l == coarsest) {
      coarseSolve(l, b, x);
      return;
    }
    smooth(l, b, x, kGmgPreSmooth, /*xZero=*/true);
    // Residual -> next coarser level (injection + weak-residual scaling).
    const Mesh<DIM>& fine = hier_->meshAt(l);
    const Mesh<DIM>& coarse = hier_->meshAt(l + 1);
    Field& Ax = wsAx_[l];
    Field& r = wsR_[l];
    ops_[l].op(x, Ax);
    subInto(b, Ax, r);
    {
      PT_SPAN("gmg-restrict");
      const auto t0 = obsNow();
      Field& bc = wsB_[l + 1];
      bc = intergrid::transferNodal(fine, r, coarse, ndof_);
      const Real scale = static_cast<Real>(1 << DIM);
      for (std::size_t rk = 0; rk < bc.size(); ++rk)
        for (Real& v : bc[rk]) v *= scale;
      if (ops_[l + 1].project) ops_[l + 1].project(bc);
      obsAdd("gmg.l" + std::to_string(l) + ".restrict_sec", t0);
    }
    Field& xc = wsX_[l + 1];
    for (std::size_t rk = 0; rk < xc.size(); ++rk)
      std::fill(xc[rk].begin(), xc[rk].end(), 0.0);
    vcycle(l + 1, wsB_[l + 1], xc);
    {
      PT_SPAN("gmg-prolong");
      const auto t0 = obsNow();
      Field ef = intergrid::transferNodal(coarse, xc, fine, ndof_);
      addScaled(x, 1.0, ef);
      obsAdd("gmg.l" + std::to_string(l) + ".prolong_sec", t0);
    }
    smooth(l, b, x, kGmgPostSmooth, /*xZero=*/false);
  }

  // Wall-clock sampling for the per-level obs histograms; compiled to
  // nothing observable when no registry is attached.
  std::chrono::steady_clock::time_point obsNow() const {
    return metrics_ ? std::chrono::steady_clock::now()
                    : std::chrono::steady_clock::time_point{};
  }
  void obsAdd(const std::string& name,
              std::chrono::steady_clock::time_point t0) const {
    if (!metrics_) return;
    metrics_->histogram(name).add(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }

  sim::SimComm* comm_;
  Options opt_;
  std::shared_ptr<const GmgHierarchy<DIM>> hier_;
  obs::Registry* metrics_;
  int ndof_ = 1;
  std::vector<GmgLevelOps<DIM>> ops_;
  std::vector<LinOp<Field>> dinv_;   ///< factored block-Jacobi per level
  std::vector<Real> eig_;            ///< per-level lambda_max(D^-1 A)
  std::vector<Field> wsAx_, wsR_, wsT_, wsD_, wsB_, wsX_;
  std::unique_ptr<FieldSpace<DIM>> coarseSpace_;
  KspWorkspace<Field> coarseWs_;
  Field coarseB_;  ///< deflated-RHS scratch for projected coarse solves
};

}  // namespace pt::la
