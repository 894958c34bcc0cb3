// Fig 4a reproduction: MATVEC strong scaling, blocking vs split-phase.
//
// Paper setup: adaptive mesh of ~13M elements / 13.7M DOFs, linear basis,
// 224 -> 28,672 processes on Frontera; 2.87 s -> 0.027 s = 81% parallel
// efficiency at a 128-fold process increase. Footnote 1 notes the ghost
// exchange is overlapped with computation — the property this bench now
// isolates by sweeping both charge schedules.
//
// Here: (a) the per-element MATVEC kernel cost is *measured* on this
// machine; (b) a SimComm run at small rank counts executes the real
// distributed MATVEC — one pass over the elements, then the accumulate
// charged as a split-phase epoch (boundary elements' work before the post,
// interior work while it is in flight; DESIGN.md §15) — and the reference
// fem::matvecNaive with a blocking accumulate, and asserts the outputs are
// bitwise identical while the engine's virtual clock stays at or under the
// reference's, with hidden time > 0 on more than one rank; (c) the
// paper-scale series is
// projected to 114,688 ranks with the explicit blocking and overlap
// models (bench/scaling_model.hpp), reporting where each series' parallel
// efficiency rolls off. Absolute times differ from Frontera; the *shape*
// (efficiency roll-off, and its shift under overlap) is the reproduction
// target.
//
// Emits BENCH_scaling.json ("pt-bench-v1", obs/report.hpp): one config per
// schedule with per-point series (procs, time, efficiency, boundary
// fraction, exposed comm), validated by tools/trace_summary.py and diffed
// by tools/bench_compare.py via bench/run_scaling_bench.sh.
#include <cstdio>
#include <cstdlib>

#include "obs/report.hpp"
#include "scaling_model.hpp"
#include "support/buildinfo.hpp"
#include "support/csv.hpp"

using namespace pt;

namespace {

/// Deterministic left-to-right fingerprint for bitwise comparison.
Real fingerprint(const Field& f, int nRanks) {
  Real s = 0;
  for (int r = 0; r < nRanks; ++r)
    for (Real v : f[r]) s += v;
  return s;
}

}  // namespace

int main() {
  support::requireReleaseBuild("fig4a_matvec_strong");
  const double perElem = bench::measureMatvecPerElem3d();
  std::printf("calibration: measured 3D MATVEC cost = %.1f ns/element\n\n",
              perElem * 1e9);
  sim::Machine machine = sim::Machine::frontera();
  // Calibrate the simulated compute rate so SimComm's per-element charges
  // reproduce the measured kernel cost.
  machine.computeRate = fem::matvecWorkPerElem<3>(1) / perElem;

  // --- Validation: real distributed MATVEC over simulated ranks -----------
  // The same mesh and field run through the engine and matvecNaive; the
  // outputs must agree bitwise (the overlap is a schedule of charges, it
  // reorders no arithmetic), the engine's clock must come in at or under
  // the reference's, and on more than one rank the difference must show
  // as hidden exchange time (the overlapHidden stat).
  {
    OctList<3> tree = uniformTree<3>(4);  // 4096 elements
    Table t({"ranks", "engine[s]", "hidden[s]", "model[s]"});
    for (int p : {1, 2, 4, 8, 16}) {
      sim::SimComm comm(p, machine);
      auto dist = DistTree<3>::fromGlobal(comm, tree);
      auto mesh = Mesh<3>::build(comm, dist);
      Field x = mesh.makeField(1), y = mesh.makeField(1);
      fem::setByPosition<3>(mesh, x, 1, [](const VecN<3>& q, Real* v) {
        v[0] = q[0] * q[1] + q[2];
      });

      comm.resetClocks();
      fem::matvecNaive<3>(mesh, x, y, 1,
                          [](const Octant<3>& oct, const Real* in,
                             Real* out) {
                            fem::applyMass<3>(oct.physSize(), in, out);
                          });
      const double tRef = comm.time();
      const Real fpRef = fingerprint(y, p);

      comm.resetClocks();
      const double hidden0 = comm.stats().overlapHidden;
      fem::massMatvec(mesh, x, y);
      const double tEngine = comm.time();
      const double hidden = comm.stats().overlapHidden - hidden0;
      const Real fpEngine = fingerprint(y, p);

      if (fpRef != fpEngine) {
        std::fprintf(stderr,
                     "FAIL: the engine's MATVEC result differs from "
                     "matvecNaive at p=%d (%.17g vs %.17g)\n",
                     p, fpEngine, fpRef);
        return 1;
      }
      if (tEngine > tRef * (1.0 + 1e-12)) {
        std::fprintf(stderr,
                     "FAIL: engine clock above the blocking reference at "
                     "p=%d (%.6g s vs %.6g s)\n",
                     p, tEngine, tRef);
        return 1;
      }
      if (p > 1 && !(hidden > 0)) {
        std::fprintf(stderr,
                     "FAIL: no exchange time hidden behind the interior "
                     "work at p=%d\n",
                     p);
        return 1;
      }
      const double modT =
          bench::modelMatvecTime(double(tree.size()), p, machine, perElem);
      t.addRow(p, tEngine, hidden, modT);
    }
    t.print(std::cout,
            "validation: engine vs one-pass matvecNaive, bitwise-identical "
            "outputs (4096-element 3D mesh)");
  }

  // --- Paper-scale projection (Fig 4a), blocking vs overlap ----------------
  obs::BenchReport rep("fig4a_matvec_strong");
  rep.info["workload"] = "13M-element adaptive 3D mesh, 1-dof MATVEC";
  rep.info["machine"] = "frontera alpha-beta model, measured kernel cost";
  rep.info["outputs_identical"] = "true";
  {
    const double N = 13.0e6;  // 13M elements as in the paper
    const std::vector<double> procs = {224.,   448.,   896.,   1792.,
                                       3584.,  7168.,  14336., 28672.,
                                       57344., 114688.};
    Table t({"procs", "block[s]", "block_eff[%]", "ovl[s]", "ovl_eff[%]",
             "boundary[%]"});
    obs::BenchConfig blockCfg{"blocking", {}, {}, {}, {}};
    obs::BenchConfig ovlCfg{"overlap", {}, {}, {}, {}};
    const bench::MatvecModelPoint p0 =
        bench::modelMatvecPoint(N, procs.front(), machine, perElem);
    double rolloffBlock = 0, rolloffOvl = 0;  // first p with eff < 70%
    for (double p : procs) {
      const bench::MatvecModelPoint mp =
          bench::modelMatvecPoint(N, p, machine, perElem);
      const double scale = p / procs.front();
      const double effB = 100.0 * (p0.blocking / mp.blocking) / scale;
      const double effO = 100.0 * (p0.overlap / mp.overlap) / scale;
      if (rolloffBlock == 0 && effB < 70.0) rolloffBlock = p;
      if (rolloffOvl == 0 && effO < 70.0) rolloffOvl = p;
      for (auto* cfg : {&blockCfg, &ovlCfg}) {
        cfg->series["procs"].push_back(p);
        cfg->series["local_elems"].push_back(mp.local);
        cfg->series["boundary_frac"].push_back(mp.boundaryFrac);
        cfg->series["compute_sec"].push_back(mp.compute);
        cfg->series["comm_alpha_sec"].push_back(mp.commAlpha);
        cfg->series["comm_beta_sec"].push_back(mp.commBeta);
      }
      blockCfg.series["time_sec"].push_back(mp.blocking);
      blockCfg.series["efficiency_pct"].push_back(effB);
      ovlCfg.series["time_sec"].push_back(mp.overlap);
      ovlCfg.series["efficiency_pct"].push_back(effO);
      t.addRow(long(p), mp.blocking, effB, mp.overlap, effO,
               100.0 * mp.boundaryFrac);
    }
    t.print(std::cout,
            "Fig 4a — MATVEC strong scaling to 114,688 ranks, blocking vs "
            "split-phase overlap");

    const bench::MatvecModelPoint p128 =
        bench::modelMatvecPoint(N, 28672, machine, perElem);
    std::printf("\npaper:    224 -> 28672 procs: 2.87 s -> 0.027 s, "
                "81%% efficiency at 128x\n");
    std::printf("blocking: 224 -> 28672 procs: %.3g s -> %.3g s, "
                "%.0f%% efficiency at 128x\n",
                p0.blocking, p128.blocking,
                100.0 * (p0.blocking / p128.blocking) / 128.0);
    std::printf("overlap:  224 -> 28672 procs: %.3g s -> %.3g s, "
                "%.0f%% efficiency at 128x\n",
                p0.overlap, p128.overlap,
                100.0 * (p0.overlap / p128.overlap) / 128.0);
    std::printf("efficiency rolls below 70%% at: blocking %s, overlap %s\n",
                rolloffBlock ? std::to_string(long(rolloffBlock)).c_str()
                             : ">114688",
                rolloffOvl ? std::to_string(long(rolloffOvl)).c_str()
                           : ">114688");

    blockCfg.metrics["t224_sec"] = p0.blocking;
    blockCfg.metrics["t28672_sec"] = p128.blocking;
    ovlCfg.metrics["t224_sec"] = p0.overlap;
    ovlCfg.metrics["t28672_sec"] = p128.overlap;
    rep.configs.push_back(std::move(blockCfg));
    rep.configs.push_back(std::move(ovlCfg));
    rep.derived["speedup_overlap_28672"] = p128.blocking / p128.overlap;
    rep.derived["speedup_overlap_114688"] =
        bench::modelMatvecTimeBlocking(N, 114688, machine, perElem) /
        bench::modelMatvecTimeOverlap(N, 114688, machine, perElem);
    rep.derived["eff128x_blocking_pct"] =
        100.0 * (p0.blocking / p128.blocking) / 128.0;
    rep.derived["eff128x_overlap_pct"] =
        100.0 * (p0.overlap / p128.overlap) / 128.0;
    rep.derived["rolloff70_blocking_procs"] = rolloffBlock;
    rep.derived["rolloff70_overlap_procs"] = rolloffOvl;
  }

  if (!rep.write("BENCH_scaling.json")) {
    std::fprintf(stderr, "FAIL: could not write BENCH_scaling.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_scaling.json\n");
  return 0;
}
