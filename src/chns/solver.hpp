// The CHNS flow solver: the paper's two-block projection scheme
// (Khanwale et al. [16]) with four solves per block:
//
//   CH-solve: fully implicit nonlinear Cahn-Hilliard ((phi, mu) block
//             system, Newton-Krylov), with the *elemental* Cahn number —
//             this is where local Cahn plugs in.
//   NS-solve: semi-implicit Crank-Nicolson linearized momentum (DIM-dof
//             block system, GMRES + node-block Jacobi).
//   PP-solve: variable-density pressure Poisson for the increment
//             (CG + Jacobi, zero-mean pinned Neumann problem).
//   VU-solve: per-direction mass-matrix velocity correction; the operator
//             and preconditioner are built once per mesh and reused for
//             every direction and timestep (the paper's N*k matrix-size
//             remark), halving/thirding the assembled footprint.
//
// All operators are applied matrix-free through the same gather/elemental/
// scatter MATVEC that the scaling benches time.
//
// Multi-tenancy contract (DESIGN.md §14): a ChnsSolver instance owns ALL of
// its mutable state — fields, pooled Krylov workspaces, frozen-coefficient
// operator caches, the GMG hierarchy, remesh memoization, telemetry bundle
// (tel_), timers, and the post-step hook. No function-local statics, no
// environment reads after construction, no shared writable globals: any
// number of solver instances may step concurrently (one per scenario-farm
// job, each on its own SimComm) without synchronization between them. The
// only process-global observability sink a step touches is append-only and
// thread-safe: the span tracer (spans carry the thread's
// obs::currentJobTag() for per-job attribution). Nested parallelFor calls
// issued while inside a ThreadPool participant run inline, so a solver
// stepped inside a farm job produces bitwise the same history as the same
// scenario stepped on a serial pool.
#pragma once

#include <functional>
#include <memory>

#include "chns/params.hpp"
#include "chns/solve_family.hpp"
#include "fem/bc.hpp"
#include "fem/matvec.hpp"
#include "intergrid/transfer.hpp"
#include "la/gmg.hpp"
#include "la/ksp.hpp"
#include "la/newton.hpp"
#include "la/pc.hpp"
#include "localcahn/identifier.hpp"
#include "amr/remesh.hpp"
#include "obs/telemetry.hpp"
#include "validate/invariants.hpp"

namespace pt::chns {

template <int DIM>
struct ChnsOptions {
  Params params;
  Real dt = 1e-3;
  int blocksPerStep = 2;  ///< the "two-block" scheme

  // Remeshing / local Cahn.
  int remeshEvery = 0;  ///< timesteps between remesh+identify; 0 = never
  localcahn::IdentifyParams identify;
  Level coarseLevel = 3;
  Level interfaceLevel = 6;
  Level featureLevel = 7;   ///< used where local Cn is reduced
  Level referenceLevel = 7; ///< b_l for the erosion/dilation counters
  Real deltaStar = 0.95;    ///< |phi| < deltaStar marks the interface band

  /// Multi-level Cn extension (paper Sec II-B3 closing remark): when
  /// non-empty, remeshing runs one identification stage per entry (each
  /// with its own erosion/dilation depths and Cn value); elements flagged
  /// by stage k refine to cnStageLevels[k] (deepest matching stage wins)
  /// and `identify`/`featureLevel` above are ignored.
  std::vector<localcahn::CnStage<DIM>> cnStages;
  std::vector<Level> cnStageLevels;

  // Solver controls.
  la::KspOptions nsKsp{.rtol = 1e-8, .maxIterations = 400};
  la::KspOptions ppKsp{.rtol = 1e-8, .maxIterations = 800};
  la::KspOptions vuKsp{.rtol = 1e-10, .maxIterations = 200};
  la::NewtonOptions chNewton{
      .rtol = 1e-8, .atol = 1e-10, .maxIterations = 12,
      .linear = {.rtol = 1e-6, .maxIterations = 200}};

  /// GMG preconditioning of the CH/NS/PP solves: matrix-free V-cycles
  /// whose level operators are frozen-coefficient mass/stiffness blocks
  /// routed through the batched panel-GEMM engine. The coarsened-tree
  /// hierarchy is a pure function of the current tree, cached across
  /// solves and no-op remeshes. Per-level variable coefficients (mobility,
  /// psi'' tables, 1/rho(phi), local Cn) are volume-restricted down the
  /// tree chain, so Newton's lagged-Jacobian reuse re-discretizes every
  /// level from the current iterate. Bitwise identical for any thread
  /// count.
  ///
  /// Degradation is graceful, never fatal (chns/solve_family.hpp): a
  /// failed V-cycle apply falls back to the pooled (block-)Jacobi for that
  /// request, and a family whose outer Krylov loop still caps out retires
  /// its GMG until the next real remesh. Sharp-interface spinodal states
  /// (the fig8 jet) thus run no worse than the pooled preconditioner.
  ///
  /// Per-solve tuning. CH is a nonsymmetric 2x2 block system carrying the
  /// frozen advection coupling on per-element convection blocks: damped
  /// block-Jacobi smoothing (no eigenvalue estimation per Newton
  /// iteration) and a BiCGStab coarse solve. NS level operators drop
  /// convection and are SPD per component. PP is the variable-density
  /// Poisson operator the paper names as the GMG target; Chebyshev
  /// smoothing and a nodal-mean-deflated coarse CG.
  la::GmgOptions gmgCh{.smoother = la::GmgSmoother::kBlockJacobi,
                       .coarseSolve = {.rtol = 1e-2, .maxIterations = 200},
                       .coarseBicgstab = true};
  la::GmgOptions gmgNs{.smoother = la::GmgSmoother::kBlockJacobi,
                       .coarseSolve = {.rtol = 1e-2, .maxIterations = 200}};
  la::GmgOptions gmgPp{.coarseSolve = {.rtol = 1e-3, .maxIterations = 200}};

  /// Velocity Dirichlet data on the domain boundary (default: no-slip).
  std::function<void(const VecN<DIM>&, Real*)> velocityBc;
};

template <int DIM>
class ChnsSolver {
 public:
  static constexpr int kC = kNumChildren<DIM>;

  ChnsSolver(sim::SimComm& comm, DistTree<DIM> tree, ChnsOptions<DIM> opt)
      : comm_(&comm), opt_(std::move(opt)), tree_(std::move(tree)) {
    tel_->ranks.attach(comm_);
    rebuildMesh();
  }

  const Mesh<DIM>& mesh() const { return *mesh_; }
  const DistTree<DIM>& tree() const { return tree_; }
  Field& phi() { return phi_; }
  Field& mu() { return mu_; }
  Field& velocity() { return vel_; }
  Field& pressure() { return p_; }
  localcahn::ElemField& elemCn() { return elemCn_; }
  /// Per-phase wall-clock accumulators (the telemetry bundle's PhaseSet).
  obs::PhaseSet& timers() { return timers_; }
  /// The full telemetry bundle: phases, metrics registry, per-rank stats.
  obs::Telemetry<sim::SimComm>& telemetry() { return *tel_; }
  const ChnsOptions<DIM>& options() const { return opt_; }
  int stepsTaken() const { return steps_; }

  // Remesh-pipeline accounting (asserted by tests/test_remesh_fastpath and
  // reported by bench/fig8_remesh_pipeline). Backed by obs counters in the
  // metrics registry; the long-returning accessors are the stable API.
  long meshRebuilds() const { return meshRebuilds_->value(); }
  long cacheInvalidations() const { return cacheInvalidations_->value(); }
  long noopRemeshes() const { return noopRemeshes_->value(); }

  /// Restores the timestep counter after a restart so the remesh,
  /// auto-checkpoint, and post-step-hook cadences continue where the
  /// writing run left off.
  void setStepsTaken(int steps) {
    PT_CHECK(steps >= 0);
    steps_ = steps;
  }

  /// Installs a hook that runs every `every` completed timesteps, after
  /// the step's remesh (so the hook observes the state the next step will
  /// start from). The auto-checkpoint driver is the canonical client.
  void setPostStepHook(std::function<void(ChnsSolver&)> hook, int every = 1) {
    PT_CHECK(every >= 1);
    postStepHook_ = std::move(hook);
    postStepEvery_ = every;
  }

  /// Runs the full invariant suite (tree, mesh, alignment, all solver
  /// fields) and throws CheckError on any violation, naming `where`.
  /// Called automatically after every remesh and restore when the
  /// PT_VALIDATE env gate is on; callable directly from tests/examples.
  void validateNow(const std::string& where) const {
    validate::Report rep = validate::checkAll(tree_, *mesh_);
    validate::checkNodalField(*mesh_, phi_, 1, "phi", rep);
    validate::checkNodalField(*mesh_, mu_, 1, "mu", rep);
    validate::checkNodalField(*mesh_, vel_, DIM, "vel", rep);
    validate::checkNodalField(*mesh_, p_, 1, "p", rep);
    validate::checkCellField(tree_, elemCn_, "cn", rep);
    validate::enforce(rep, where);
  }

  /// Sets the initial phase field by position; mu is initialized to the
  /// pointwise chemical potential (the gradient part enters via the first
  /// CH solve), velocity/pressure to rest.
  void setInitialCondition(
      const std::function<Real(const VecN<DIM>&)>& phiFn,
      const std::function<void(const VecN<DIM>&, Real*)>& velFn = nullptr) {
    fem::setByPosition<DIM>(*mesh_, phi_, 1, [&](const VecN<DIM>& x, Real* v) {
      v[0] = phiFn(x);
    });
    fem::setByPosition<DIM>(*mesh_, mu_, 1, [&](const VecN<DIM>& x, Real* v) {
      v[0] = Params::dpsi(phiFn(x));
    });
    if (velFn)
      fem::setByPosition<DIM>(*mesh_, vel_, DIM, velFn);
    applyVelocityBc(vel_);
  }

  /// One full timestep (two blocks of the four solves by default), plus
  /// remesh + identify + transfer at the configured cadence.
  void step() {
    PT_SPAN("step");
    for (int b = 0; b < opt_.blocksPerStep; ++b)
      block(opt_.dt / opt_.blocksPerStep);
    ++steps_;
    if (opt_.remeshEvery > 0 && steps_ % opt_.remeshEvery == 0) remeshNow();
    if (postStepHook_ && steps_ % postStepEvery_ == 0) postStepHook_(*this);
  }

  /// Runs the local-Cahn identifier, remeshes to the indicated levels, and
  /// transfers all fields to the new mesh.
  void remeshNow() {
    obs::TimedSpan st(timers_, "remesh");
    typename obs::RankPhases<sim::SimComm>::Scope rs(tel_->ranks, "remesh");
    sim::PerRank<std::vector<Level>> want;
    {
    obs::TimedSpan it(timers_, "remesh-identify");
    if (opt_.cnStages.empty()) {
      elemCn_ = localcahn::identifyLocalCahn(*mesh_, phi_,
                                             opt_.referenceLevel,
                                             opt_.identify);
      want = localcahn::interfaceRefineLevels<DIM>(
          *mesh_, phi_, elemCn_, opt_.identify.cnFine, opt_.deltaStar,
          opt_.coarseLevel, opt_.interfaceLevel, opt_.featureLevel);
    } else {
      PT_CHECK(opt_.cnStages.size() == opt_.cnStageLevels.size());
      auto stages = localcahn::identifyMultiLevelCahn<DIM>(
          *mesh_, phi_, opt_.referenceLevel, opt_.cnStages);
      elemCn_ = localcahn::cnFromStages<DIM>(*mesh_, stages,
                                             opt_.params.Cn, opt_.cnStages);
      // Refinement: stage-k features get cnStageLevels[k-1]; unflagged
      // interface elements get interfaceLevel; the far field coarsens.
      want = localcahn::interfaceBandLevels<DIM>(
          *mesh_, phi_, opt_.deltaStar, opt_.coarseLevel,
          [&](int r, std::size_t e) {
            const int s = stages[r][e];
            return s > 0 ? opt_.cnStageLevels[s - 1] : opt_.interfaceLevel;
          });
    }
    }  // remesh-identify

    // Tier-0 no-op exit: the identifier reproduced the exact want vector
    // of the previous no-op verdict and the tree has not changed since
    // (the memo is dropped whenever tree_ is reassigned). remesh() is
    // deterministic in (tree, want), so the old verdict still holds —
    // even the predicate scan can be skipped. This is what catches the
    // steady state the tier-1 predicate must conservatively decline
    // (e.g. standing coarsening votes that balance keeps undoing).
    bool noop = wantIsMemoizedNoop_;
    for (int r = 0; r < mesh_->nRanks() && wantIsMemoizedNoop_; ++r) {
      noop = noop && want[r] == lastNoopWant_[r];
      comm_->chargeWork(r, static_cast<double>(want[r].size()));
    }
    // Tier-1 no-op exit: conservative zero-allocation predicate; when it
    // holds, remesh(tree_, want) is guaranteed to return the input tree,
    // so the rebuild/transfer/invalidation below can be skipped wholesale
    // (the steady-interface case). The rank-local verdicts are combined
    // with one (charged) reduction.
    if (!noop) noop = remeshIsNoOp(tree_, want);
    comm_->allreduceMax(sim::PerRank<Real>(mesh_->nRanks(), 0.0));
    if (noop) {
      markNoopRemesh(std::move(want));
      return;
    }

    RemeshTimers rt{&timers_["remesh-refine"], &timers_["remesh-coarsen"],
                    &timers_["remesh-balance"],
                    &timers_["remesh-repartition"]};
    DistTree<DIM> newTree = remesh(tree_, want, rt);
    // Tier-2 no-op exit: exact tree comparison for cases the predicate
    // conservatively declined (e.g. a family collapse balance undoes).
    bool same = true;
    for (int r = 0; r < mesh_->nRanks() && same; ++r)
      same = newTree.localOf(r) == tree_.localOf(r);
    if (same) {
      markNoopRemesh(std::move(want));
      return;
    }
    wantIsMemoizedNoop_ = false;
    std::unique_ptr<Mesh<DIM>> newMesh;
    {
      obs::TimedSpan bt(timers_, "remesh-meshbuild");
      newMesh = std::make_unique<Mesh<DIM>>(Mesh<DIM>::build(*comm_, newTree));
      meshRebuilds_->inc();
    }
    // Transfer node-centered state, then cell-centered Cn, with the
    // old-grid routing tables gathered once for the whole epoch.
    Field phiN, muN, velN, pN;
    localcahn::ElemField cnN;
    {
      obs::TimedSpan tt(timers_, "remesh-transfer");
      const intergrid::TransferTables<DIM> tables =
          intergrid::gatherTransferTables(tree_);
      // The four nodal fields go through one async epoch: all query
      // exchanges posted up front, answers pipelined against in-flight
      // replies. The cell transfer stays sequential: its second round is
      // data-dependent on the first round's coverage results.
      std::vector<Field> nodal = intergrid::transferNodalMany<DIM>(
          *mesh_,
          {{&phi_, 1}, {&mu_, 1}, {&vel_, DIM}, {&p_, 1}},
          *newMesh, &tables);
      phiN = std::move(nodal[0]);
      muN = std::move(nodal[1]);
      velN = std::move(nodal[2]);
      pN = std::move(nodal[3]);
      cnN = intergrid::transferCell(tree_, elemCn_, newTree, &tables);
    }
    tree_ = std::move(newTree);
    mesh_ = std::move(newMesh);
    phi_ = std::move(phiN);
    mu_ = std::move(muN);
    vel_ = std::move(velN);
    p_ = std::move(pN);
    elemCn_ = std::move(cnN);
    refreshMeshDependents();
    applyVelocityBc(vel_);
    if (validate::enabled())
      validateNow("after remesh at step " + std::to_string(steps_));
  }

  // ---- Diagnostics ---------------------------------------------------------

  /// Integral of phi over the domain (conserved by Cahn-Hilliard).
  Real phiIntegral() const {
    Field Mphi = mesh_->makeField(1);
    fem::massMatvec(*mesh_, phi_, Mphi);
    Field ones = mesh_->makeField(1);
    for (int r = 0; r < mesh_->nRanks(); ++r)
      std::fill(ones[r].begin(), ones[r].end(), 1.0);
    return mesh_->dot(ones, Mphi, 1);
  }

  /// Ginzburg-Landau free energy: int Cn^2/2 |grad phi|^2 + psi(phi).
  Real freeEnergy() const {
    const auto& quad = fem::Quadrature<DIM, 2>::get();
    const auto& bt = fem::BasisTable<DIM, 2>::get();
    sim::PerRank<Real> part(mesh_->nRanks(), 0.0);
    std::vector<Real> uLoc(kC);
    for (int r = 0; r < mesh_->nRanks(); ++r) {
      const RankMesh<DIM>& rm = mesh_->rank(r);
      for (std::size_t e = 0; e < rm.nElems(); ++e) {
        fem::gatherElem(rm, e, phi_[r], 1, uLoc.data());
        const Real h = rm.elems[e].physSize();
        const Real cn = elemCn_[r].empty() ? opt_.params.Cn : elemCn_[r][e];
        Real jac = 1;
        for (int d = 0; d < DIM; ++d) jac *= h;
        for (int q = 0; q < fem::Quadrature<DIM, 2>::kPoints; ++q) {
          Real phi = 0;
          VecN<DIM> g;
          for (int i = 0; i < kC; ++i) {
            phi += bt.N[q][i] * uLoc[i];
            g += (uLoc[i] / h) * bt.dN[q][i];
          }
          part[r] += quad.w[q] * jac *
                     (0.5 * cn * cn * dot(g, g) + Params::psi(phi));
        }
      }
    }
    return comm_->allreduceSum(part);
  }

  Real maxVelocity() const { return mesh_->maxAbs(vel_); }

  /// L2 norm of div(v) — solenoidality check after VU.
  Real divergenceNorm() const {
    const auto& quad = fem::Quadrature<DIM, 2>::get();
    const auto& bt = fem::BasisTable<DIM, 2>::get();
    sim::PerRank<Real> part(mesh_->nRanks(), 0.0);
    std::vector<Real> vLoc(kC * DIM);
    for (int r = 0; r < mesh_->nRanks(); ++r) {
      const RankMesh<DIM>& rm = mesh_->rank(r);
      for (std::size_t e = 0; e < rm.nElems(); ++e) {
        fem::gatherElem(rm, e, vel_[r], DIM, vLoc.data());
        const Real h = rm.elems[e].physSize();
        Real jac = 1;
        for (int d = 0; d < DIM; ++d) jac *= h;
        for (int q = 0; q < fem::Quadrature<DIM, 2>::kPoints; ++q) {
          Real div = 0;
          for (int i = 0; i < kC; ++i)
            for (int d = 0; d < DIM; ++d)
              div += (bt.dN[q][i][d] / h) * vLoc[i * DIM + d];
          part[r] += quad.w[q] * jac * div * div;
        }
      }
    }
    return std::sqrt(comm_->allreduceSum(part));
  }

 private:
  // ---- Mesh-bound state ----------------------------------------------------

  /// Records a no-op remesh verdict: memoizes `want` for the tier-0 exit
  /// and leaves the mesh, the fields and the solver caches untouched.
  void markNoopRemesh(sim::PerRank<std::vector<Level>> want) {
    noopRemeshes_->inc();
    lastNoopWant_ = std::move(want);
    wantIsMemoizedNoop_ = true;
    if (validate::enabled())
      validateNow("after no-op remesh at step " + std::to_string(steps_));
  }

  void rebuildMesh() {
    mesh_ = std::make_unique<Mesh<DIM>>(Mesh<DIM>::build(*comm_, tree_));
    meshRebuilds_->inc();
    wantIsMemoizedNoop_ = false;
    phi_ = mesh_->makeField(1);
    mu_ = mesh_->makeField(1);
    vel_ = mesh_->makeField(DIM);
    p_ = mesh_->makeField(1);
    refreshMeshDependents();
  }

  void refreshMeshDependents() {
    invalidateSolverCaches();
    scalarSpace_ = std::make_unique<la::FieldSpace<DIM>>(*mesh_, 1);
    mask_ = fem::boundaryMask(*mesh_);
    if (elemCn_.empty() ||
        static_cast<int>(elemCn_.size()) != mesh_->nRanks()) {
      elemCn_.assign(mesh_->nRanks(), {});
    }
    for (int r = 0; r < mesh_->nRanks(); ++r)
      if (elemCn_[r].size() != mesh_->rank(r).nElems())
        elemCn_[r].assign(mesh_->rank(r).nElems(), opt_.params.Cn);
    // VU mass operator + Jacobi diagonal: built once per mesh and reused
    // for every direction of every timestep (paper's VU-solve remark).
    vuDiag_ = la::assembleDiagonalBlocks<DIM>(
        *mesh_, 1, [](const Octant<DIM>& oct, Real* Ae) {
          const auto& ref = fem::refMass<DIM>();
          Real s = 1;
          for (int d = 0; d < DIM; ++d) s *= oct.physSize();
          for (std::size_t k = 0; k < ref.size(); ++k) Ae[k] = ref[k] * s;
        });
  }

  /// Drops every resource tied to the current (mesh, dt): each family's
  /// pooled KSP workspace, cached preconditioners and V-cycle, and the GMG
  /// hierarchy (geometry of the old tree). Called on every mesh rebuild —
  /// stale-shaped workspace vectors or factorizations must never survive a
  /// remesh. No-op remeshes return before reaching here, so the hierarchy
  /// survives them. A fresh mesh is a fresh chance: retired families get
  /// retried.
  void invalidateSolverCaches() {
    cacheInvalidations_->inc();
    for (SolveFamily* f : {&ch_, &ns_, &pp_, &vu_}) f->reset();
    gmgHier_.reset();
  }

  // ---- GMG preconditioning -------------------------------------------------

  /// The coarsened-tree hierarchy, built lazily once per mesh and shared by
  /// the CH/NS/PP preconditioners. Depth covers the deepest per-solve
  /// request; each Gmg clamps to its own level count.
  const std::shared_ptr<const la::GmgHierarchy<DIM>>& ensureGmgHierarchy() {
    if (!gmgHier_) {
      const int levels =
          std::max(opt_.gmgCh.levels,
                   std::max(opt_.gmgNs.levels, opt_.gmgPp.levels));
      const Level minLevel =
          std::min(opt_.gmgCh.minLevel,
                   std::min(opt_.gmgNs.minLevel, opt_.gmgPp.minLevel));
      gmgHier_ = la::GmgHierarchy<DIM>::build(*comm_, tree_, mesh_.get(),
                                              levels, minLevel);
      gmgHierBuilds_->inc();
    }
    return gmgHier_;
  }

  const DistTree<DIM>& gmgTreeAt(const la::GmgHierarchy<DIM>& hier,
                                 int l) const {
    return l == 0 ? tree_ : hier.coarseTrees[l - 1];
  }

  /// Restricts a per-element coefficient down the hierarchy's tree chain
  /// (volume-weighted cell averaging per hop). Level 0 is moved in as-is.
  std::vector<sim::PerRank<std::vector<Real>>> gmgRestrictCell(
      const la::GmgHierarchy<DIM>& hier, int numLevels,
      sim::PerRank<std::vector<Real>> fine0) const {
    std::vector<sim::PerRank<std::vector<Real>>> out;
    out.reserve(numLevels);
    out.push_back(std::move(fine0));
    for (int l = 1; l < numLevels; ++l)
      out.push_back(intergrid::transferCell(gmgTreeAt(hier, l - 1),
                                            out.back(),
                                            hier.coarseTrees[l - 1]));
    return out;
  }

  /// Element means of one component of a nodal field (hanging-consistent
  /// gather) — the cell seed the coefficient restriction starts from.
  sim::PerRank<std::vector<Real>> elemMeanOf(const Field& f, int ndof,
                                             int comp) const {
    sim::PerRank<std::vector<Real>> out(mesh_->nRanks());
    std::vector<Real> g(std::size_t(kC) * ndof);
    for (int r = 0; r < mesh_->nRanks(); ++r) {
      const RankMesh<DIM>& rm = mesh_->rank(r);
      out[r].resize(rm.nElems());
      for (std::size_t e = 0; e < rm.nElems(); ++e) {
        fem::gatherElem(rm, e, f[r], ndof, g.data());
        Real s = 0;
        for (int i = 0; i < kC; ++i) s += g[i * ndof + comp];
        out[r][e] = s / kC;
      }
      mesh_->comm().chargeWork(r, 2.0 * kC * rm.nElems());
    }
    return out;
  }

  sim::PerRank<std::vector<Real>> elemCnCells() const {
    sim::PerRank<std::vector<Real>> out(mesh_->nRanks());
    for (int r = 0; r < mesh_->nRanks(); ++r) {
      const std::size_t ne = mesh_->rank(r).nElems();
      out[r].resize(ne);
      for (std::size_t e = 0; e < ne; ++e) out[r][e] = cnOf(r, e);
    }
    return out;
  }

  /// CH V-cycle: frozen 2x2 CH-Jacobian blocks per element, re-discretized
  /// per level from the restricted Newton iterate (phibar), local Cn, and
  /// the element-mean velocity. Advection rides on the convection-block
  /// family — without it the V-cycle preconditions the wrong operator once
  /// transport dominates (jet inflow at v ~ 1) and the CH GMRES stalls at
  /// its cap. The mprime·grad(mu) coupling is deliberately NOT frozen in:
  /// its 1/sqrt(1-phi^2) blowup next to saturated cells makes the coarse
  /// BiCGStab diverge, costing more than the term buys. Rebuilt every
  /// makePc call — the Gmg is a pure function of (mesh, iterate, velocity,
  /// dt), so histories are independent of caching.
  la::LinOp<Field> buildChGmg(Real dt, const Field& u) {
    obs::TimedSpan at(timers_, "ch-assemble");
    const auto& hier = ensureGmgHierarchy();
    const int L = std::min(hier->numLevels(), std::max(1, opt_.gmgCh.levels));
    auto phibar = gmgRestrictCell(*hier, L, elemMeanOf(u, 2, 0));
    auto cnL = gmgRestrictCell(*hier, L, elemCnCells());
    std::array<std::vector<sim::PerRank<std::vector<Real>>>, DIM> vbar;
    for (int d = 0; d < DIM; ++d)
      vbar[d] = gmgRestrictCell(*hier, L, elemMeanOf(vel_, DIM, d));
    const Params& P = opt_.params;
    la::GmgOpFactory<DIM> factory =
        [&](const Mesh<DIM>& m, int l) -> la::GmgLevelOps<DIM> {
      auto cM = std::make_shared<sim::PerRank<std::vector<Real>>>(m.nRanks());
      auto cK = std::make_shared<sim::PerRank<std::vector<Real>>>(m.nRanks());
      auto cT = std::make_shared<sim::PerRank<std::vector<Real>>>(m.nRanks());
      for (int r = 0; r < m.nRanks(); ++r) {
        const std::size_t ne = m.rank(r).nElems();
        (*cM)[r].resize(ne * 4);
        (*cK)[r].resize(ne * 4);
        (*cT)[r].assign(ne * std::size_t(DIM) * 4, 0.0);
        for (std::size_t e = 0; e < ne; ++e) {
          const Real phi = phibar[l][r][e];
          const Real cn = cnL[l][r][e];
          Real* bM = (*cM)[r].data() + e * 4;
          Real* bK = (*cK)[r].data() + e * 4;
          Real* bT = (*cT)[r].data() + e * std::size_t(DIM) * 4;
          // Rows: (phi-residual, mu-residual) with mobility, psi'', the
          // local Cn, velocity and grad(mu) all frozen per element.
          bM[0] = 1.0 / dt;
          bM[1] = 0.0;
          bM[2] = -Params::d2psi(phi);
          bM[3] = 1.0;
          bK[0] = 0.0;
          bK[1] = P.mobility(phi) / (P.Pe * cn);
          bK[2] = -cn * cn;
          bK[3] = 0.0;
          // (phi row, phi col) convection blocks: advection integrated by
          // parts (−v̄).
          for (int d = 0; d < DIM; ++d) bT[d * 4] = -vbar[d][l][r][e];
        }
      }
      return la::makeCoefBlockLevelOps<DIM>(m, 2, std::move(cM),
                                            std::move(cK), std::move(cT));
    };
    auto g = std::make_shared<la::Gmg<DIM>>(*comm_, hier, factory,
                                            opt_.gmgCh, &tel_->metrics);
    return [g](const Field& r, Field& z) { g->apply(r, z); };
  }

  /// NS V-cycle: rho(phi)/dt mass + 0.5 eta(phi)/Re stiffness per velocity
  /// component, Dirichlet-wrapped with each level's own boundary mask.
  la::LinOp<Field> buildNsGmg(Real dt) {
    obs::TimedSpan at(timers_, "ns-assemble");
    const auto& hier = ensureGmgHierarchy();
    const int L = std::min(hier->numLevels(), std::max(1, opt_.gmgNs.levels));
    auto phibar = gmgRestrictCell(*hier, L, elemMeanOf(phi_, 1, 0));
    const Params& P = opt_.params;
    la::GmgOpFactory<DIM> factory =
        [&](const Mesh<DIM>& m, int l) -> la::GmgLevelOps<DIM> {
      auto cM = std::make_shared<sim::PerRank<std::vector<Real>>>(m.nRanks());
      auto cK = std::make_shared<sim::PerRank<std::vector<Real>>>(m.nRanks());
      constexpr int nd2 = DIM * DIM;
      for (int r = 0; r < m.nRanks(); ++r) {
        const std::size_t ne = m.rank(r).nElems();
        (*cM)[r].assign(ne * nd2, 0.0);
        (*cK)[r].assign(ne * nd2, 0.0);
        for (std::size_t e = 0; e < ne; ++e) {
          const Real phi = phibar[l][r][e];
          const Real rho = P.rho(phi), eta = P.eta(phi);
          for (int a = 0; a < DIM; ++a) {
            (*cM)[r][e * nd2 + a * DIM + a] = rho / dt;
            (*cK)[r][e * nd2 + a * DIM + a] = 0.5 * eta / P.Re;
          }
        }
      }
      la::GmgLevelOps<DIM> ops =
          la::makeCoefBlockLevelOps<DIM>(m, DIM, std::move(cM), std::move(cK));
      // Per-level Dirichlet rows: the mask is owned by a shared_ptr kept
      // alive inside the op closure (dirichletOp captures it by reference),
      // and mirrored into ops.mask for the smoother-diagonal treatment.
      auto mask = std::make_shared<Field>(fem::boundaryMask(m));
      ops.op = [mask, inner = fem::dirichletOp(m, *mask,
                                               std::move(ops.op), DIM)](
                   const Field& x, Field& y) { inner(x, y); };
      // ndof-wide mask (boundaryMask is one value per node).
      Field wide = m.makeField(DIM);
      for (int r = 0; r < m.nRanks(); ++r)
        for (std::size_t i = 0; i < m.rank(r).nNodes(); ++i)
          for (int a = 0; a < DIM; ++a)
            wide[r][i * DIM + a] = (*mask)[r][i];
      ops.mask = std::move(wide);
      return ops;
    };
    auto g = std::make_shared<la::Gmg<DIM>>(*comm_, hier, factory,
                                            opt_.gmgNs, &tel_->metrics);
    return [g](const Field& r, Field& z) { g->apply(r, z); };
  }

  /// PP V-cycle: the paper's variable-density Poisson target. Level
  /// operators are dt/(We rho(phi)) stiffness with the restricted phi;
  /// every level carries the Euclidean nodal-mean deflation of its own
  /// node set (the operator is singular Neumann on every level).
  la::LinOp<Field> buildPpGmg(Real dt) {
    obs::TimedSpan at(timers_, "pp-assemble");
    const auto& hier = ensureGmgHierarchy();
    const int L = std::min(hier->numLevels(), std::max(1, opt_.gmgPp.levels));
    auto phibar = gmgRestrictCell(*hier, L, elemMeanOf(phi_, 1, 0));
    const Params& P = opt_.params;
    la::GmgOpFactory<DIM> factory =
        [&](const Mesh<DIM>& m, int l) -> la::GmgLevelOps<DIM> {
      auto cM = std::make_shared<sim::PerRank<std::vector<Real>>>(m.nRanks());
      auto cK = std::make_shared<sim::PerRank<std::vector<Real>>>(m.nRanks());
      for (int r = 0; r < m.nRanks(); ++r) {
        const std::size_t ne = m.rank(r).nElems();
        (*cM)[r].assign(ne, 0.0);
        (*cK)[r].resize(ne);
        for (std::size_t e = 0; e < ne; ++e)
          (*cK)[r][e] = dt / (P.We * P.rho(phibar[l][r][e]));
      }
      la::GmgLevelOps<DIM> ops =
          la::makeCoefBlockLevelOps<DIM>(m, 1, std::move(cM), std::move(cK));
      // Euclidean nodal-mean deflation on this level's own node set; the
      // level operator is also projection-wrapped so the coarse Krylov
      // solve stays on the deflated subspace.
      auto ones = std::make_shared<Field>(m.makeField(1));
      for (int r = 0; r < m.nRanks(); ++r)
        std::fill((*ones)[r].begin(), (*ones)[r].end(), 1.0);
      const Real nNodes = static_cast<Real>(m.globalNodeCount());
      auto project = [&m, ones, nNodes](Field& f) {
        const Real mean = m.dot(*ones, f, 1) / nNodes;
        for (std::size_t r = 0; r < f.size(); ++r)
          for (Real& v : f[r]) v -= mean;
      };
      ops.project = project;
      ops.op = [inner = std::move(ops.op), project](const Field& x,
                                                    Field& y) {
        inner(x, y);
        project(y);
      };
      return ops;
    };
    auto g = std::make_shared<la::Gmg<DIM>>(*comm_, hier, factory,
                                            opt_.gmgPp, &tel_->metrics);
    return [g](const Field& r, Field& z) { g->apply(r, z); };
  }

  Real cnOf(int r, std::size_t e) const {
    return elemCn_[r].empty() ? opt_.params.Cn : elemCn_[r][e];
  }

  void applyVelocityBc(Field& v) const {
    for (int r = 0; r < mesh_->nRanks(); ++r) {
      const RankMesh<DIM>& rm = mesh_->rank(r);
      for (std::size_t li = 0; li < rm.nNodes(); ++li) {
        if (mask_[r][li] == 0.0) continue;
        if (opt_.velocityBc) {
          opt_.velocityBc(nodeCoords(rm.nodeKeys[li]), &v[r][li * DIM]);
        } else {
          for (int d = 0; d < DIM; ++d) v[r][li * DIM + d] = 0.0;
        }
      }
    }
  }

  /// Subtracts the Euclidean (nodal) mean over owned DOFs. The constant
  /// vector spans the kernel of the Neumann Poisson operator; CG requires
  /// rhs and preconditioned residuals orthogonal to it in the *vector* dot
  /// product, so this (not the mass-weighted mean) is the deflation used
  /// inside the PP solve. ownedSum(f) equals dot(ones, f) bitwise without
  /// a ones field; this runs in the PP preconditioner every iteration.
  void projectNodalMean(Field& f) const {
    const Real mean = scalarSpace_->ownedSum(f) /
                      static_cast<Real>(mesh_->globalNodeCount());
    for (int r = 0; r < mesh_->nRanks(); ++r)
      for (Real& v : f[r]) v -= mean;
  }

  /// Subtracts the (lumped-mass weighted) mean — nullspace pinning for the
  /// pure-Neumann pressure Poisson problem.
  void projectZeroMean(Field& f) const {
    Field Mf = mesh_->makeField(1);
    fem::massMatvec(*mesh_, f, Mf);
    Field ones = mesh_->makeField(1);
    for (int r = 0; r < mesh_->nRanks(); ++r)
      std::fill(ones[r].begin(), ones[r].end(), 1.0);
    Field Mones = mesh_->makeField(1);
    fem::massMatvec(*mesh_, ones, Mones);
    const Real mean =
        mesh_->dot(ones, Mf, 1) / mesh_->dot(ones, Mones, 1);
    for (int r = 0; r < mesh_->nRanks(); ++r)
      for (Real& v : f[r]) v -= mean;
  }

  // ---- One block of the two-block scheme ------------------------------------

  void block(Real dt) {
    // Per-simulated-rank phase attribution (when telemetry().ranks is
    // enabled): snapshots the SimComm rank clocks around each solve; local
    // folding only, no collectives, so CommStats are unperturbed.
    using RankScope = typename obs::RankPhases<sim::SimComm>::Scope;
    {
      RankScope rs(tel_->ranks, "ch-solve");
      chSolve(dt);
    }
    {
      RankScope rs(tel_->ranks, "ns-solve");
      nsSolve(dt);
    }
    {
      RankScope rs(tel_->ranks, "pp-solve");
      ppSolve(dt);
    }
    {
      RankScope rs(tel_->ranks, "vu-solve");
      vuSolve(dt);
    }
    // Per-solve iteration metrics: cumulative counters plus per-solve
    // distributions of the Krylov/Newton iteration counts.
    obs::Registry& m = tel_->metrics;
    m.counter("ch-newton-iters").inc(lastChNewton_.iterations);
    m.counter("ch-ksp-iters").inc(lastChNewton_.totalLinearIterations);
    m.counter("ns-ksp-iters").inc(lastNs_.iterations);
    m.counter("pp-ksp-iters").inc(lastPp_.iterations);
    m.counter("vu-ksp-iters").inc(lastVuIterations_);
    // Blocks whose CH Newton stopped at its iteration cap unconverged.
    if (!lastChNewton_.converged) m.counter("chNewtonUnconverged").inc();
    m.histogram("ksp-iters-ch").add(lastChNewton_.totalLinearIterations);
    m.histogram("ksp-iters-ns").add(lastNs_.iterations);
    m.histogram("ksp-iters-pp").add(lastPp_.iterations);
    m.histogram("ksp-iters-vu").add(lastVuIterations_);
  }

  // CH-solve: Newton on U = (phi, mu), ndof = 2.
  void chSolve(Real dt) {
    obs::TimedSpan st(timers_, "ch-solve");
    la::FieldSpace<DIM> S(*mesh_, 2);
    S.attachVecTimer(&timers_["ch-vec"]);
    const Params& P = opt_.params;
    const Field phiOld = phi_;
    const Field velOld = vel_;

    // Pack U = (phi, mu).
    Field U = mesh_->makeField(2);
    for (int r = 0; r < mesh_->nRanks(); ++r)
      for (std::size_t i = 0; i < mesh_->rank(r).nNodes(); ++i) {
        U[r][i * 2] = phi_[r][i];
        U[r][i * 2 + 1] = mu_[r][i];
      }

    const auto& quad = fem::Quadrature<DIM, 2>::get();
    const auto& bt = fem::BasisTable<DIM, 2>::get();
    constexpr int nq = fem::Quadrature<DIM, 2>::kPoints;

    auto residual = [&, dt](const Field& u, Field& F) {
      obs::TimedSpan ot(timers_, "ch-op");
      fem::matvecIndexed<DIM>(
          *mesh_, u, F, 2,
          [&, dt](int r, std::size_t e, const Octant<DIM>& oct,
                  const Real* in, Real* out) {
            // Scratch lives in the kernel so concurrent elements (threaded
            // engine) don't share it.
            std::array<Real, kC> po;
            std::array<Real, std::size_t(kC) * DIM> vo;
            const RankMesh<DIM>& rm = mesh_->rank(r);
            fem::gatherElem(rm, e, phiOld[r], 1, po.data());
            fem::gatherElem(rm, e, velOld[r], DIM, vo.data());
            const Real h = oct.physSize(), cn = cnOf(r, e);
            Real jac = 1;
            for (int d = 0; d < DIM; ++d) jac *= h;
            for (int q = 0; q < nq; ++q) {
              Real phi = 0, mu = 0, phio = 0;
              VecN<DIM> gphi, gmu, v;
              for (int i = 0; i < kC; ++i) {
                const Real N = bt.N[q][i];
                phi += N * in[i * 2];
                mu += N * in[i * 2 + 1];
                phio += N * po[i];
                for (int d = 0; d < DIM; ++d) {
                  const Real dN = bt.dN[q][i][d] / h;
                  gphi[d] += dN * in[i * 2];
                  gmu[d] += dN * in[i * 2 + 1];
                  v[d] += N * vo[i * DIM + d];
                }
              }
              const Real m = P.mobility(phi);
              const Real w = quad.w[q] * jac;
              for (int i = 0; i < kC; ++i) {
                const Real N = bt.N[q][i];
                VecN<DIM> dN;
                for (int d = 0; d < DIM; ++d) dN[d] = bt.dN[q][i][d] / h;
                // R_phi: time + advection (integrated by parts) + mobility.
                out[i * 2] += w * ((phi - phio) / dt * N - phi * dot(v, dN) +
                                   (m / (P.Pe * cn)) * dot(gmu, dN));
                // R_mu: mu - psi'(phi) - Cn^2 lap(phi) (weak form).
                out[i * 2 + 1] += w * ((mu - Params::dpsi(phi)) * N -
                                       cn * cn * dot(gphi, dN));
              }
            }
          });
    };

    // Per-quad-point frozen linearization state: m, m', psi'', v, grad(mu).
    // Everything here depends only on the Newton iterate and velOld — not on
    // the Krylov vector — so it is invariant across all applies of one
    // Jacobian: evaluated once per makeJ into chJCoef_ and replayed by every
    // apply.
    constexpr int kJq = 3 + 2 * DIM;
    auto makeJ = [&, dt](const Field& u) -> la::LinOp<Field> {
      {
        obs::TimedSpan ot(timers_, "ch-op");
        chJCoef_.resize(mesh_->nRanks());
        std::array<Real, std::size_t(kC) * 2> uu;
        std::array<Real, std::size_t(kC) * DIM> vo;
        for (int r = 0; r < mesh_->nRanks(); ++r) {
          const RankMesh<DIM>& rm = mesh_->rank(r);
          chJCoef_[r].resize(rm.nElems() * std::size_t(nq) * kJq);
          for (std::size_t e = 0; e < rm.nElems(); ++e) {
            fem::gatherElem(rm, e, u[r], 2, uu.data());
            fem::gatherElem(rm, e, velOld[r], DIM, vo.data());
            const Real h = rm.elems[e].physSize();
            Real* c = chJCoef_[r].data() + e * std::size_t(nq) * kJq;
            for (int q = 0; q < nq; ++q, c += kJq) {
              Real phi = 0;
              VecN<DIM> gmu, v;
              for (int i = 0; i < kC; ++i) {
                const Real N = bt.N[q][i];
                phi += N * uu[i * 2];
                for (int d = 0; d < DIM; ++d) {
                  const Real dN = bt.dN[q][i][d] / h;
                  gmu[d] += dN * uu[i * 2 + 1];
                  v[d] += N * vo[i * DIM + d];
                }
              }
              const Real c2 = 1 - std::min(Real(1), phi * phi);
              c[0] = P.mobility(phi);
              c[1] = c2 > 1e-6 ? -phi / std::sqrt(c2) : 0.0;
              c[2] = Params::d2psi(phi);
              for (int d = 0; d < DIM; ++d) {
                c[3 + d] = v[d];
                c[3 + DIM + d] = gmu[d];
              }
            }
          }
          mesh_->comm().chargeWork(r, 2.0 * kC * nq * kJq * rm.nElems());
        }
      }
      return [this, dt, &quad, &bt](const Field& x, Field& y) {
        obs::TimedSpan ot(timers_, "ch-op");
        constexpr int nq = fem::Quadrature<DIM, 2>::kPoints;
        constexpr int kJq = 3 + 2 * DIM;
        const Params& P = opt_.params;
        fem::matvecIndexed<DIM>(
            *mesh_, x, y, 2,
            [&, dt](int r, std::size_t e, const Octant<DIM>& oct,
                    const Real* in, Real* out) {
              const Real h = oct.physSize(), cn = cnOf(r, e);
              Real jac = 1;
              for (int d = 0; d < DIM; ++d) jac *= h;
              // Per-element table of bt.dN/h: the same division the direct
              // kernel performs at every use, done once (bitwise identical,
              // and the inner loops become pure fused multiply-adds).
              Real dNh[nq][kC][DIM];
              for (int q = 0; q < nq; ++q)
                for (int i = 0; i < kC; ++i)
                  for (int d = 0; d < DIM; ++d)
                    dNh[q][i][d] = bt.dN[q][i][d] / h;
              const Real* c = chJCoef_[r].data() + e * std::size_t(nq) * kJq;
              for (int q = 0; q < nq; ++q, c += kJq) {
                Real dphi = 0, dmu = 0;
                VecN<DIM> gdphi, gdmu;
                for (int i = 0; i < kC; ++i) {
                  const Real N = bt.N[q][i];
                  dphi += N * in[i * 2];
                  dmu += N * in[i * 2 + 1];
                  for (int d = 0; d < DIM; ++d) {
                    const Real dN = dNh[q][i][d];
                    gdphi[d] += dN * in[i * 2];
                    gdmu[d] += dN * in[i * 2 + 1];
                  }
                }
                const Real m = c[0], mprime = c[1], d2 = c[2];
                VecN<DIM> v, gmu;
                for (int d = 0; d < DIM; ++d) {
                  v[d] = c[3 + d];
                  gmu[d] = c[3 + DIM + d];
                }
                const Real w = quad.w[q] * jac;
                for (int i = 0; i < kC; ++i) {
                  const Real N = bt.N[q][i];
                  VecN<DIM> dN;
                  for (int d = 0; d < DIM; ++d) dN[d] = dNh[q][i][d];
                  out[i * 2] +=
                      w * (dphi / dt * N - dphi * dot(v, dN) +
                           (m / (P.Pe * cn)) * dot(gdmu, dN) +
                           (mprime * dphi / (P.Pe * cn)) * dot(gmu, dN));
                  out[i * 2 + 1] += w * ((dmu - d2 * dphi) * N -
                                         cn * cn * dot(gdphi, dN));
                }
              }
            });
      };
    };

    auto assembleChDiag = [&, dt]() -> Field {
      obs::TimedSpan at(timers_, "ch-assemble");
      return la::assembleDiagonalBlocks<DIM>(
          *mesh_, 2,
          [&, dt](const Octant<DIM>& oct, Real* Ae) {
            // Diagonal-only elemental Jacobian approximation: time/mass and
            // stiffness blocks (advection omitted).
            const auto& refM = fem::refMass<DIM>();
            const auto& refK = fem::refStiffness<DIM>();
            const Real h = oct.physSize();
            Real jac = 1;
            for (int d = 0; d < DIM; ++d) jac *= h;
            const Real kscale = (DIM == 2) ? 1.0 : h;
            const Real cn = opt_.params.Cn;
            const int n = kC * 2;
            for (int i = 0; i < kC; ++i)
              for (int j = 0; j < kC; ++j) {
                const Real M = refM[i * kC + j] * jac;
                const Real K = refK[i * kC + j] * kscale;
                Ae[(i * 2) * n + (j * 2)] = M / dt;
                Ae[(i * 2) * n + (j * 2 + 1)] =
                    K / (opt_.params.Pe * cn);
                Ae[(i * 2 + 1) * n + (j * 2)] = -cn * cn * K + M;
                Ae[(i * 2 + 1) * n + (j * 2 + 1)] = M;
              }
          });
    };

    // Matrix-free V-cycle on the frozen CH Jacobian, re-discretized per
    // level from the current Newton iterate (lagged-Jacobian reuse: newton
    // calls makePc once per outer iteration, matching makeJ). The diagonal
    // approximation is state-independent, so the family caches its
    // factorized blocks per (mesh, dt) as the fallback.
    auto makePc = [&, dt](const Field& state) -> la::LinOp<Field> {
      return ch_.preconditioner(
          dt, [&] { return buildChGmg(dt, state); },
          [&] { return la::makeBlockJacobi(*mesh_, 2, assembleChDiag()); });
    };

    auto res = la::newton<la::FieldSpace<DIM>>(S, U, residual, makeJ, makePc,
                                               opt_.chNewton, &ch_.workspace());
    lastChNewton_ = res;
    // Every inner GMRES saturated its cap: the V-cycle is not
    // preconditioning this regime (sharp-interface spinodal states defeat
    // the frozen coarse coefficients). Retire it until the next real remesh
    // instead of paying for ineffective cycles.
    ch_.retireIf(!res.converged && res.iterations > 0 &&
                 res.totalLinearIterations >=
                     res.iterations * opt_.chNewton.linear.maxIterations);
    if (!ch_.accept(U)) {
      // A degenerate preconditioned solve overflowed the iterate. Keep the
      // pre-solve phi/mu (the historical caps publish bounded garbage, never
      // NaN — downstream solves must be able to rely on that) and retire
      // the CH V-cycle for this mesh epoch.
      ch_.retire();
      return;
    }
    // Unpack.
    for (int r = 0; r < mesh_->nRanks(); ++r)
      for (std::size_t i = 0; i < mesh_->rank(r).nNodes(); ++i) {
        phi_[r][i] = U[r][i * 2];
        mu_[r][i] = U[r][i * 2 + 1];
      }
  }

  // NS-solve: linearized semi-implicit momentum for v*.
  void nsSolve(Real dt) {
    obs::TimedSpan st(timers_, "ns-solve");
    la::FieldSpace<DIM> S(*mesh_, DIM);
    S.attachVecTimer(&timers_["ns-vec"]);
    const Params& P = opt_.params;
    const auto& quad = fem::Quadrature<DIM, 2>::get();
    const auto& bt = fem::BasisTable<DIM, 2>::get();
    constexpr int nq = fem::Quadrature<DIM, 2>::kPoints;
    const Field velOld = vel_;

    auto stateAtQ = [&](int r, std::size_t e, const Octant<DIM>& oct, int q,
                        const Real* ph, const Real* muv, Real& rho, Real& eta,
                        VecN<DIM>& Jflux, VecN<DIM>& gphi) {
      const Real h = oct.physSize();
      Real phi = 0;
      VecN<DIM> gmu;
      for (int i = 0; i < kC; ++i) {
        phi += bt.N[q][i] * ph[i];
        for (int d = 0; d < DIM; ++d) {
          gphi[d] += (bt.dN[q][i][d] / h) * ph[i];
          gmu[d] += (bt.dN[q][i][d] / h) * muv[i];
        }
      }
      rho = P.rho(phi);
      eta = P.eta(phi);
      const Real jc = P.fluxCoeff(phi, cnOf(r, e));
      Jflux = jc * gmu;
    };

    // Per-quad-point frozen state for the linearized momentum operator:
    // rho, eta, the flux J, and the advecting velocity w depend only on
    // phi/mu/velOld, which are fixed for the whole GMRES solve. They are
    // evaluated once into nsCoef_ and replayed by every apply.
    constexpr int kNsQ = 2 + 2 * DIM;
    {
      obs::TimedSpan ot(timers_, "ns-op");
      nsCoef_.resize(mesh_->nRanks());
      std::array<Real, kC> ph, muv;
      std::array<Real, std::size_t(kC) * DIM> vo;
      for (int r = 0; r < mesh_->nRanks(); ++r) {
        const RankMesh<DIM>& rm = mesh_->rank(r);
        nsCoef_[r].resize(rm.nElems() * std::size_t(nq) * kNsQ);
        for (std::size_t e = 0; e < rm.nElems(); ++e) {
          fem::gatherElem(rm, e, phi_[r], 1, ph.data());
          fem::gatherElem(rm, e, mu_[r], 1, muv.data());
          fem::gatherElem(rm, e, velOld[r], DIM, vo.data());
          const Octant<DIM>& oct = rm.elems[e];
          Real* c = nsCoef_[r].data() + e * std::size_t(nq) * kNsQ;
          for (int q = 0; q < nq; ++q, c += kNsQ) {
            Real rho, eta;
            VecN<DIM> Jf, gphi, w;
            stateAtQ(r, e, oct, q, ph.data(), muv.data(), rho, eta, Jf,
                     gphi);
            for (int i = 0; i < kC; ++i) {
              const Real N = bt.N[q][i];
              for (int a = 0; a < DIM; ++a) w[a] += N * vo[i * DIM + a];
            }
            c[0] = rho;
            c[1] = eta;
            for (int d = 0; d < DIM; ++d) {
              c[2 + d] = Jf[d];
              c[2 + DIM + d] = w[d];
            }
          }
        }
        mesh_->comm().chargeWork(r, 2.0 * kC * nq * kNsQ * rm.nElems());
      }
    }

    la::LinOp<Field> Araw = [&, dt](const Field& x, Field& y) {
      obs::TimedSpan ot(timers_, "ns-op");
      fem::matvecIndexed<DIM>(
          *mesh_, x, y, DIM,
          [&, dt](int r, std::size_t e, const Octant<DIM>& /*oct*/,
                  const Real* in, Real* out) {
            const Real h = mesh_->rank(r).elems[e].physSize();
            Real jac = 1;
            for (int d = 0; d < DIM; ++d) jac *= h;
            // bt.dN/h hoisted per element — identical division, done once.
            Real dNh[nq][kC][DIM];
            for (int q = 0; q < nq; ++q)
              for (int i = 0; i < kC; ++i)
                for (int d = 0; d < DIM; ++d)
                  dNh[q][i][d] = bt.dN[q][i][d] / h;
            const Real* c = nsCoef_[r].data() + e * std::size_t(nq) * kNsQ;
            for (int q = 0; q < nq; ++q, c += kNsQ) {
              const Real rho = c[0], eta = c[1];
              VecN<DIM> Jf, w;
              for (int d = 0; d < DIM; ++d) {
                Jf[d] = c[2 + d];
                w[d] = c[2 + DIM + d];
              }
              VecN<DIM> xq;
              std::array<VecN<DIM>, DIM> gx;
              for (int i = 0; i < kC; ++i) {
                const Real N = bt.N[q][i];
                for (int a = 0; a < DIM; ++a) {
                  xq[a] += N * in[i * DIM + a];
                  for (int d = 0; d < DIM; ++d)
                    gx[a][d] += dNh[q][i][d] * in[i * DIM + a];
                }
              }
              const Real wq = quad.w[q] * jac;
              for (int i = 0; i < kC; ++i) {
                const Real N = bt.N[q][i];
                VecN<DIM> dN;
                for (int d = 0; d < DIM; ++d) dN[d] = dNh[q][i][d];
                for (int a = 0; a < DIM; ++a) {
                  Real conv = dot(w, gx[a]) * rho + dot(Jf, gx[a]) / P.Pe;
                  out[i * DIM + a] +=
                      wq * (rho * xq[a] * N / dt + 0.5 * conv * N +
                            (0.5 / P.Re) * eta * dot(gx[a], dN));
                }
              }
            }
          });
    };

    // Weak RHS.
    Field rhs = mesh_->makeField(DIM);
    {
      obs::TimedSpan at(timers_, "ns-assemble");
      std::vector<Real> ph(kC), muv(kC), vo(kC * DIM), pr(kC);
      fem::assembleRhs<DIM>(
          *mesh_, rhs, DIM,
          [&, dt](int r, std::size_t e, const Octant<DIM>& oct, Real* out) {
            const RankMesh<DIM>& rm = mesh_->rank(r);
            fem::gatherElem(rm, e, phi_[r], 1, ph.data());
            fem::gatherElem(rm, e, mu_[r], 1, muv.data());
            fem::gatherElem(rm, e, velOld[r], DIM, vo.data());
            fem::gatherElem(rm, e, p_[r], 1, pr.data());
            const Real h = oct.physSize(), cn = cnOf(r, e);
            Real jac = 1;
            for (int d = 0; d < DIM; ++d) jac *= h;
            for (int q = 0; q < nq; ++q) {
              Real rho, eta;
              VecN<DIM> Jf, gphi;
              stateAtQ(r, e, oct, q, ph.data(), muv.data(), rho, eta, Jf,
                       gphi);
              Real pq = 0;
              VecN<DIM> w;
              std::array<VecN<DIM>, DIM> gw;
              for (int i = 0; i < kC; ++i) {
                const Real N = bt.N[q][i];
                pq += N * pr[i];
                for (int a = 0; a < DIM; ++a) {
                  w[a] += N * vo[i * DIM + a];
                  for (int d = 0; d < DIM; ++d)
                    gw[a][d] += (bt.dN[q][i][d] / h) * vo[i * DIM + a];
                }
              }
              const Real wq = quad.w[q] * jac;
              for (int i = 0; i < kC; ++i) {
                const Real N = bt.N[q][i];
                VecN<DIM> dN;
                for (int d = 0; d < DIM; ++d) dN[d] = bt.dN[q][i][d] / h;
                for (int a = 0; a < DIM; ++a) {
                  Real conv = dot(w, gw[a]) * rho + dot(Jf, gw[a]) / P.Pe;
                  Real st = 0;  // surface tension: +(Cn/We) (gphi x gphi):grad u
                  for (int b = 0; b < DIM; ++b)
                    st += gphi[a] * gphi[b] * dN[b];
                  Real grav =
                      (opt_.params.gravityDir == a) ? -rho / P.Fr : 0.0;
                  out[i * DIM + a] +=
                      wq * (rho * w[a] * N / dt - 0.5 * conv * N -
                            (0.5 / P.Re) * eta * dot(gw[a], dN) +
                            (1.0 / P.We) * pq * dN[a] +
                            (cn / P.We) * st + grav * N);
                }
              }
            }
          });
    }

    // Dirichlet velocity boundary.
    Field g = mesh_->makeField(DIM);
    applyVelocityBc(g);
    la::LinOp<Field> A = fem::dirichletOp(*mesh_, mask_, Araw, DIM);
    Field rhsBc = fem::liftDirichletRhs(*mesh_, mask_, Araw, rhs, g, DIM);

    // Node-block Jacobi on the time + viscous part. The diagonal is
    // state-independent, so the factorized blocks are cached per (mesh, dt)
    // and reused across time steps.
    auto assembleNsDiag = [&, dt]() -> Field {
      obs::TimedSpan at(timers_, "ns-assemble");
      return la::assembleDiagonalBlocks<DIM>(
          *mesh_, DIM, [&, dt](const Octant<DIM>& oct, Real* Ae) {
            const auto& refM = fem::refMass<DIM>();
            const auto& refK = fem::refStiffness<DIM>();
            const Real h = oct.physSize();
            Real jac = 1;
            for (int d = 0; d < DIM; ++d) jac *= h;
            const Real kscale = (DIM == 2) ? 1.0 : h;
            const int n = kC * DIM;
            for (int i = 0; i < kC; ++i)
              for (int j = 0; j < kC; ++j) {
                const Real val = refM[i * kC + j] * jac / dt +
                                 (0.5 / P.Re) * refK[i * kC + j] * kscale;
                for (int a = 0; a < DIM; ++a)
                  Ae[(i * DIM + a) * n + (j * DIM + a)] = val;
              }
          });
    };
    // V-cycle on the variable-coefficient time + viscous part (the
    // block-Jacobi diagonal above ignores rho/eta; the GMG levels do not).
    const la::LinOp<Field> M = ns_.preconditioner(
        dt, [&] { return buildNsGmg(dt); },
        [&] { return la::makeBlockJacobi(*mesh_, DIM, assembleNsDiag()); });

    Field vstar = vel_;  // initial guess
    fem::copyMasked(*mesh_, mask_, g, vstar, DIM);
    lastNs_ =
        la::gmres(S, A, rhsBc, vstar, opt_.nsKsp, &M, &ns_.workspace());
    ns_.retireIf(!lastNs_.converged);
    if (!ns_.accept(vstar)) {
      // Same contract as the CH guard: never publish non-finite velocity.
      vstar = vel_;
      fem::copyMasked(*mesh_, mask_, g, vstar, DIM);
    }
    velStar_ = std::move(vstar);
  }

  // PP-solve: variable-density pressure Poisson for the increment dp.
  void ppSolve(Real dt) {
    obs::TimedSpan st(timers_, "pp-solve");
    la::FieldSpace<DIM> S(*mesh_, 1);
    S.attachVecTimer(&timers_["pp-vec"]);
    const Params& P = opt_.params;
    const auto& quad = fem::Quadrature<DIM, 2>::get();
    const auto& bt = fem::BasisTable<DIM, 2>::get();
    constexpr int nq = fem::Quadrature<DIM, 2>::kPoints;

    // The dt/(We rho(phi)) mobility coefficient is fixed for the whole
    // Krylov solve: evaluated once per quad point into ppCoef_ instead of
    // re-gathering phi on every apply.
    {
      obs::TimedSpan ot(timers_, "pp-op");
      ppCoef_.resize(mesh_->nRanks());
      std::array<Real, kC> ph;
      for (int r = 0; r < mesh_->nRanks(); ++r) {
        const RankMesh<DIM>& rm = mesh_->rank(r);
        ppCoef_[r].resize(rm.nElems() * std::size_t(nq));
        for (std::size_t e = 0; e < rm.nElems(); ++e) {
          fem::gatherElem(rm, e, phi_[r], 1, ph.data());
          Real* c = ppCoef_[r].data() + e * std::size_t(nq);
          for (int q = 0; q < nq; ++q) {
            Real phi = 0;
            for (int i = 0; i < kC; ++i) phi += bt.N[q][i] * ph[i];
            c[q] = dt / (P.We * P.rho(phi));
          }
        }
        mesh_->comm().chargeWork(r, 2.0 * kC * nq * rm.nElems());
      }
    }

    la::LinOp<Field> A = [&, dt](const Field& x, Field& y) {
      obs::TimedSpan ot(timers_, "pp-op");
      fem::matvecIndexed<DIM>(
          *mesh_, x, y, 1,
          [&](int r, std::size_t e, const Octant<DIM>& oct,
              const Real* in, Real* out) {
            const Real h = oct.physSize();
            Real jac = 1;
            for (int d = 0; d < DIM; ++d) jac *= h;
            // bt.dN/h hoisted per element — identical division, done once.
            Real dNh[nq][kC][DIM];
            for (int q = 0; q < nq; ++q)
              for (int i = 0; i < kC; ++i)
                for (int d = 0; d < DIM; ++d)
                  dNh[q][i][d] = bt.dN[q][i][d] / h;
            const Real* c = ppCoef_[r].data() + e * std::size_t(nq);
            for (int q = 0; q < nq; ++q) {
              VecN<DIM> gx;
              for (int i = 0; i < kC; ++i)
                for (int d = 0; d < DIM; ++d)
                  gx[d] += dNh[q][i][d] * in[i];
              const Real coef = c[q];
              const Real wq = quad.w[q] * jac;
              for (int i = 0; i < kC; ++i) {
                VecN<DIM> dN;
                for (int d = 0; d < DIM; ++d) dN[d] = dNh[q][i][d];
                out[i] += wq * coef * dot(gx, dN);
              }
            }
          });
    };

    Field rhs = mesh_->makeField(1);
    {
      obs::TimedSpan at(timers_, "pp-assemble");
      std::vector<Real> vs(kC * DIM);
      fem::assembleRhs<DIM>(
          *mesh_, rhs, 1,
          [&](int r, std::size_t e, const Octant<DIM>& oct, Real* out) {
            const RankMesh<DIM>& rm = mesh_->rank(r);
            fem::gatherElem(rm, e, velStar_[r], DIM, vs.data());
            const Real h = oct.physSize();
            Real jac = 1;
            for (int d = 0; d < DIM; ++d) jac *= h;
            for (int q = 0; q < nq; ++q) {
              Real div = 0;
              for (int i = 0; i < kC; ++i)
                for (int d = 0; d < DIM; ++d)
                  div += (bt.dN[q][i][d] / h) * vs[i * DIM + d];
              const Real wq = quad.w[q] * jac;
              for (int i = 0; i < kC; ++i)
                out[i] += wq * (-div) * bt.N[q][i];
            }
          });
    }
    projectNodalMean(rhs);  // deflate the constant nullspace (Euclidean)
    Field dp = mesh_->makeField(1);
    // Jacobi preconditioner from the weighted stiffness diagonal, wrapped
    // with kernel deflation so the Krylov space stays orthogonal to the
    // constants (otherwise singular-system CG eventually diverges).
    auto assemblePpDiag = [&, dt]() -> Field {
      obs::TimedSpan at(timers_, "pp-assemble");
      return la::assembleDiagonalBlocks<DIM>(
          *mesh_, 1, [&, dt](const Octant<DIM>& oct, Real* Ae) {
            const auto& refK = fem::refStiffness<DIM>();
            const Real kscale = (DIM == 2) ? 1.0 : oct.physSize();
            for (std::size_t k = 0; k < refK.size(); ++k)
              Ae[k] = refK[k] * kscale * dt / P.We;
          });
    };
    // V-cycle on the variable-density Poisson operator, every level
    // deflated against its own constant nullspace; both paths deflate z.
    const la::LinOp<Field> M = pp_.preconditioner(
        dt, [&] { return buildPpGmg(dt); },
        [&] { return la::makeJacobi(*mesh_, 1, assemblePpDiag()); },
        [this](Field& z) { projectNodalMean(z); });
    // The V-cycle (injection restriction != prolongation^T) is not
    // symmetric, so preconditioned CG theory does not apply; BiCGStab
    // carries the GMG path. A retired family keeps CG.
    //
    // The solve is allowed to fail soft: upstream GMG-degraded solves can
    // hand this system states on which the deflated Jacobi preconditioner
    // (Jacobi-then-project is mildly nonsymmetric) makes CG graze
    // pAp <= 0, and BiCGStab can break down to a non-finite iterate.
    // Either way the breakdown counts one fallback and the pressure
    // increment for this block is skipped (dp = 0) instead of failing the
    // step.
    la::KspWorkspace<Field>* ws = &pp_.workspace();
    try {
      lastPp_ = pp_.usesGmg() ? la::bicgstab(S, A, rhs, dp, opt_.ppKsp, &M, ws)
                              : la::cg(S, A, rhs, dp, opt_.ppKsp, &M, ws);
    } catch (const CheckError&) {
      pp_.countFallback();
      lastPp_ = la::KspResult{};
      for (auto& v : dp) std::fill(v.begin(), v.end(), 0.0);
    }
    pp_.retireIf(!lastPp_.converged);
    if (!pp_.accept(dp))
      for (auto& v : dp) std::fill(v.begin(), v.end(), 0.0);
    projectZeroMean(dp);  // physical normalization: zero mass-weighted mean
    dp_ = std::move(dp);
    // p^{n+1} = p^n + dp
    for (int r = 0; r < mesh_->nRanks(); ++r)
      for (std::size_t i = 0; i < p_[r].size(); ++i) p_[r][i] += dp_[r][i];
  }

  // VU-solve: per-direction velocity correction with the reused mass
  // operator/preconditioner.
  void vuSolve(Real dt) {
    obs::TimedSpan st(timers_, "vu-solve");
    la::FieldSpace<DIM> S(*mesh_, 1);
    S.attachVecTimer(&timers_["vu-vec"]);
    const Params& P = opt_.params;
    const auto& quad = fem::Quadrature<DIM, 2>::get();
    const auto& bt = fem::BasisTable<DIM, 2>::get();
    constexpr int nq = fem::Quadrature<DIM, 2>::kPoints;

    la::LinOp<Field> Mop = [&](const Field& x, Field& y) {
      obs::TimedSpan ot(timers_, "vu-op");
      fem::massMatvec(*mesh_, x, y);
    };
    // vuDiag_ is already built once per mesh; the family keeps the
    // preconditioner (and its copy of the diagonal) across solves too.
    const la::LinOp<Field> pc = vu_.preconditioner(
        dt, nullptr, [&] { return la::makeJacobi(*mesh_, 1, vuDiag_); });

    lastVuIterations_ = 0;
    for (int a = 0; a < DIM; ++a) {
      // rhs_a = M v*_a - int (dt/(We rho)) d_a(dp) u.
      Field rhs = mesh_->makeField(1);
      {
        std::vector<Real> vs(kC * DIM), dpl(kC), ph(kC);
        obs::TimedSpan at(timers_, "vu-assemble");
        fem::assembleRhs<DIM>(
            *mesh_, rhs, 1,
            [&, a, dt](int r, std::size_t e, const Octant<DIM>& oct,
                       Real* out) {
              const RankMesh<DIM>& rm = mesh_->rank(r);
              fem::gatherElem(rm, e, velStar_[r], DIM, vs.data());
              fem::gatherElem(rm, e, dp_[r], 1, dpl.data());
              fem::gatherElem(rm, e, phi_[r], 1, ph.data());
              const Real h = oct.physSize();
              Real jac = 1;
              for (int d = 0; d < DIM; ++d) jac *= h;
              for (int q = 0; q < nq; ++q) {
                Real va = 0, phi = 0, gdp = 0;
                for (int i = 0; i < kC; ++i) {
                  va += bt.N[q][i] * vs[i * DIM + a];
                  phi += bt.N[q][i] * ph[i];
                  gdp += (bt.dN[q][i][a] / h) * dpl[i];
                }
                const Real wq = quad.w[q] * jac;
                const Real corr = dt / (P.We * P.rho(phi)) * gdp;
                for (int i = 0; i < kC; ++i)
                  out[i] += wq * (va - corr) * bt.N[q][i];
              }
            });
      }
      Field va = mesh_->makeField(1);
      for (int r = 0; r < mesh_->nRanks(); ++r)
        for (std::size_t i = 0; i < mesh_->rank(r).nNodes(); ++i)
          va[r][i] = velStar_[r][i * DIM + a];
      auto res =
          la::cg(S, Mop, rhs, va, opt_.vuKsp, &pc, &vu_.workspace());
      lastVuIterations_ += res.iterations;
      for (int r = 0; r < mesh_->nRanks(); ++r)
        for (std::size_t i = 0; i < mesh_->rank(r).nNodes(); ++i)
          vel_[r][i * DIM + a] = va[r][i];
    }
    applyVelocityBc(vel_);
  }

 public:
  // Last-solve statistics, exposed for tests and the scaling benches.
  la::NewtonResult lastChNewton_{};
  la::KspResult lastNs_{}, lastPp_{};
  int lastVuIterations_ = 0;

 private:
  sim::SimComm* comm_;
  ChnsOptions<DIM> opt_;
  DistTree<DIM> tree_;
  std::unique_ptr<Mesh<DIM>> mesh_;
  Field phi_, mu_, vel_, p_, velStar_, dp_, mask_, vuDiag_;
  localcahn::ElemField elemCn_;
  /// Telemetry bundle, heap-allocated so the solver stays movable (the
  /// bundle holds mutexes): a move transfers the pointer, and the cached
  /// phase reference / counter pointers below keep aiming at the same
  /// heap object. Declared before them — they initialize from it.
  std::unique_ptr<obs::Telemetry<sim::SimComm>> tel_ =
      std::make_unique<obs::Telemetry<sim::SimComm>>();
  obs::PhaseSet& timers_ = tel_->phases;
  // Remesh-pipeline counters, cached out of the metrics registry so the
  // hot-path increments skip the name lookup.
  obs::Counter* meshRebuilds_ =
      &tel_->metrics.counter("meshRebuilds");  ///< Mesh::build invocations
  obs::Counter* cacheInvalidations_ = &tel_->metrics.counter(
      "cacheInvalidations");  ///< invalidateSolverCaches invocations
  obs::Counter* noopRemeshes_ = &tel_->metrics.counter(
      "noopRemeshes");  ///< remeshNow calls that changed nothing
  int steps_ = 0;
  /// Tier-0 no-op memo: the want vector of the last no-op verdict, valid
  /// only while tree_ is unchanged (dropped on every rebuild).
  sim::PerRank<std::vector<Level>> lastNoopWant_;
  bool wantIsMemoizedNoop_ = false;
  std::function<void(ChnsSolver&)> postStepHook_;
  int postStepEvery_ = 1;

  // The four solve families: pooled Krylov workspaces kept warm across
  // time steps, preconditioners cached per (mesh, dt), and the GMG
  // degradation policy. All reset by invalidateSolverCaches() on remesh.
  SolveFamily ch_{true, timers_, tel_->metrics, "ch-pc"};
  SolveFamily ns_{true, timers_, tel_->metrics, "ns-pc"};
  SolveFamily pp_{true, timers_, tel_->metrics, "pp-pc"};
  SolveFamily vu_{false, timers_, tel_->metrics, "vu-pc"};
  std::unique_ptr<la::FieldSpace<DIM>> scalarSpace_;
  // Frozen-coefficient caches for the matrix-free operators: per-element,
  // per-quad-point linearization state, rebuilt at each operator
  // construction and sized to the current mesh (storage reused across
  // solves). Only read while the owning solve's state fields are alive.
  Field chJCoef_, nsCoef_, ppCoef_;
  // GMG preconditioning: one coarsened-tree hierarchy per mesh, shared by
  // the per-solve Gmg objects. Hierarchy construction never touches
  // solution state, so caching it is bitwise-neutral; dropped by
  // invalidateSolverCaches() on every real remesh.
  std::shared_ptr<const la::GmgHierarchy<DIM>> gmgHier_;
  obs::Counter* gmgHierBuilds_ =
      &tel_->metrics.counter("gmgHierarchyBuilds");
};

}  // namespace pt::chns
