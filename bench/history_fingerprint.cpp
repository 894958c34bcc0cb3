// Solver-history fingerprint: a refactor check, not a benchmark.
//
// Runs four small CHNS scenarios and prints, in exact hexadecimal floating
// point (%a), everything a refactor that claims "same numbers" must leave
// bitwise unchanged:
//   - per step: the CH Newton iterations and its total Krylov iterations,
//     the NS and PP Krylov iterations, the VU iterations, the CH residual,
//     the sums of phi, mu, velocity and pressure, and the per-rank leaf
//     counts;
//   - per scenario: the SimComm modeled time, every rank's clock, and the
//     collective, message, byte, split-exchange and hidden-overlap totals.
//
// Scenarios: the bubble-2d physics of examples/rising_bubble.cpp on 4
// ranks; a 2D drop remeshed every step on 1 and on 4 ranks; a 3D drop
// remeshed every step on 2 ranks. Each stays below la::kVecThreadMin
// entries per rank, so the vector kernels take their serial path and the
// output must not depend on PT_NUM_THREADS either.
//
// Use: build this file against the parent's src/ and against the change,
// run both, and `cmp` the outputs — at PT_NUM_THREADS=1 and 4, and with
// PT_SIMD=scalar. tools/run_threaded_checks.sh compares 1 and 4 threads.
//
//   ./build/bench/history_fingerprint > a.txt
#include <cstdio>
#include <string>

#include "apps/fields.hpp"
#include "chns/solver.hpp"

using namespace pt;

namespace {

Real fieldSum(const Field& f) {
  Real s = 0;
  for (const auto& fr : f)
    for (Real v : fr) s += v;
  return s;
}

template <int DIM>
void printStep(chns::ChnsSolver<DIM>& s, int step) {
  std::printf(
      "step %d newton %d ch_krylov %d ns_krylov %d pp_krylov %d vu %d "
      "ch_res %a phi %a mu %a vel %a p %a leaves",
      step, s.lastChNewton_.iterations,
      s.lastChNewton_.totalLinearIterations, s.lastNs_.iterations,
      s.lastPp_.iterations, s.lastVuIterations_,
      s.lastChNewton_.residualNorm, fieldSum(s.phi()), fieldSum(s.mu()),
      fieldSum(s.velocity()), fieldSum(s.pressure()));
  for (int r = 0; r < s.mesh().nRanks(); ++r)
    std::printf(" %zu", s.tree().localOf(r).size());
  std::printf("\n");
}

void printComm(const sim::SimComm& comm) {
  const sim::CommStats& st = comm.stats();
  std::printf("comm time %a clocks", comm.time());
  for (int r = 0; r < comm.size(); ++r) std::printf(" %a", comm.clockOf(r));
  std::printf(
      "\ncomm collectives %ld messages %ld bytes %a split_exchanges %ld "
      "overlap_hidden %a\n",
      st.collectives, st.messages, st.bytes, st.splitExchanges,
      st.overlapHidden);
}

template <int DIM>
void runScenario(const std::string& name, sim::SimComm& comm,
                 chns::ChnsSolver<DIM>& s, int steps) {
  std::printf("== %s (%d ranks)\n", name.c_str(), comm.size());
  for (int i = 1; i <= steps; ++i) {
    s.step();
    printStep(s, i);
  }
  printComm(comm);
}

void bubble2d() {
  sim::SimComm comm(4, sim::Machine::loopback());
  chns::ChnsOptions<2> opt;
  opt.params.Re = 35;
  opt.params.We = 10;
  opt.params.Pe = 100;
  opt.params.Cn = 0.03;
  opt.params.rhoMinus = 0.1;
  opt.params.etaMinus = 0.1;
  opt.params.Fr = 0.4;
  opt.params.gravityDir = 1;
  opt.dt = 2e-3;
  opt.remeshEvery = 4;
  opt.coarseLevel = 3;
  opt.interfaceLevel = 6;
  opt.featureLevel = 6;
  opt.referenceLevel = 6;
  opt.identify.cnCoarse = opt.params.Cn;
  opt.identify.cnFine = opt.params.Cn / 2;
  chns::ChnsSolver<2> s(comm, DistTree<2>::fromGlobal(comm, uniformTree<2>(5)),
                        opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.3}}, 0.15, opt.params.Cn);
  });
  s.remeshNow();
  runScenario("bubble-2d", comm, s, 8);
}

void drop2d(int ranks) {
  sim::SimComm comm(ranks, sim::Machine::loopback());
  chns::ChnsOptions<2> opt;
  opt.params.Cn = 0.03;
  opt.dt = 1e-3;
  opt.remeshEvery = 1;
  opt.coarseLevel = 3;
  opt.interfaceLevel = 5;
  opt.featureLevel = 5;
  opt.referenceLevel = 5;
  chns::ChnsSolver<2> s(comm, DistTree<2>::fromGlobal(comm, uniformTree<2>(4)),
                        opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });
  runScenario("drop-2d remeshEvery=1", comm, s, 4);
}

void drop3d() {
  sim::SimComm comm(2, sim::Machine::loopback());
  chns::ChnsOptions<3> opt;
  opt.params.Cn = 0.06;
  opt.dt = 1e-3;
  opt.remeshEvery = 1;
  opt.coarseLevel = 2;
  opt.interfaceLevel = 4;
  opt.featureLevel = 4;
  opt.referenceLevel = 4;
  opt.identify.cnCoarse = opt.params.Cn;
  opt.identify.cnFine = opt.params.Cn / 2;
  chns::ChnsSolver<3> s(comm, DistTree<3>::fromGlobal(comm, uniformTree<3>(3)),
                        opt);
  s.setInitialCondition([&](const VecN<3>& x) {
    return apps::dropPhi<3>(x, VecN<3>{{0.5, 0.5, 0.5}}, 0.28, opt.params.Cn);
  });
  runScenario("drop-3d remeshEvery=1", comm, s, 2);
}

}  // namespace

int main() {
  bubble2d();
  drop2d(1);
  drop2d(4);
  drop3d();
  return 0;
}
