// drop-adapt3d: the adaptivity cycle of paper Sec II-C on a moving 3D drop,
// with no flow solve.
#include <algorithm>
#include <cmath>

#include "apps/fields.hpp"
#include "solver_loop.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pt;

namespace {

constexpr Real kDropR = 0.2;
constexpr Real kDropCn = 0.04;
constexpr int kInterfaceLevel = 5;
constexpr Real kFinest = 1.0 / (1 << kInterfaceLevel);

chns::ChnsOptions<3> dropOptions() {
  chns::ChnsOptions<3> opt;
  opt.params.Cn = kDropCn;
  opt.coarseLevel = 2;
  opt.interfaceLevel = kInterfaceLevel;
  opt.featureLevel = kInterfaceLevel;
  opt.referenceLevel = kInterfaceLevel;
  opt.identify.cnCoarse = kDropCn;
  opt.identify.cnFine = kDropCn / 2;
  return opt;
}

/// The drop's path: a seeded walk whose moves span 1 to 2 finest elements
/// in a random direction, reflected at the walls of a box of +-3 finest
/// elements around the start, so every seed samples the same part of the
/// octree and the op cost does not wander with the seed. The seed also
/// jitters the start by up to a quarter element. Every fourth op holds the
/// drop still.
class DropPath {
 public:
  explicit DropPath(std::uint64_t seed) : rng_(seed) {
    for (int d = 0; d < 3; ++d)
      c0_[d] = 0.5 + rng_.uniform(-0.25, 0.25) * kFinest;
    pts_.push_back(c0_);
  }
  /// Centre before op 0 (k = 0) and after op k - 1 (k >= 1).
  const VecN<3>& at(long k) {
    while (long(pts_.size()) <= k) extend();
    return pts_[std::size_t(k)];
  }

 private:
  void extend() {
    VecN<3> c = pts_.back();
    if (pts_.size() % 4 != 0) {
      VecN<3> dir;
      Real n2 = 0;
      do {
        n2 = 0;
        for (int d = 0; d < 3; ++d) {
          dir[d] = rng_.uniform(-1, 1);
          n2 += dir[d] * dir[d];
        }
      } while (n2 < 1e-2 || n2 > 1);
      const Real len = kFinest * rng_.uniform(1, 2) / std::sqrt(n2);
      for (int d = 0; d < 3; ++d) {
        const Real lo = c0_[d] - kBox, hi = c0_[d] + kBox;
        Real x = c[d] + len * dir[d];
        if (x < lo) x = 2 * lo - x;
        if (x > hi) x = 2 * hi - x;
        c[d] = x;
      }
    }
    pts_.push_back(c);
  }
  static constexpr Real kBox = 3 * kFinest;
  Rng rng_;
  VecN<3> c0_;
  std::vector<VecN<3>> pts_;
};

}  // namespace

RunResult runDropAdapt3d(const RunOptions& o) {
  DropPath path(o.seed);
  const chns::ChnsOptions<3> opt = dropOptions();
  const auto dropAt = [](const VecN<3>& c) {
    return [c](const VecN<3>& x) {
      return apps::dropPhi<3>(x, c, kDropR, kDropCn);
    };
  };

  SolverWorkload<3> w;
  w.setupReps = 5;
  w.minOps = 100;
  w.exactOps = 16;
  w.traceBlock = 16;
  w.speedupOps = 8;
  w.opSpan = "ChnsSolver::remeshNow";
  w.coveragePhases = {"remesh-identify", "remesh-refine",
                      "remesh-coarsen",  "remesh-balance",
                      "remesh-repartition", "remesh-meshbuild",
                      "remesh-transfer"};
  w.setup = [&] {
    SolverRun<3> run;
    run.comm = std::make_unique<sim::SimComm>(4, sim::Machine::loopback());
    auto tree = DistTree<3>::fromGlobal(*run.comm, uniformTree<3>(3));
    run.solver =
        std::make_unique<chns::ChnsSolver<3>>(*run.comm, std::move(tree), opt);
    run.solver->setInitialCondition(dropAt(path.at(0)));
    run.solver->remeshNow();
    run.solver->setInitialCondition(dropAt(path.at(0)));
    return run;
  };
  w.op = [&](SolverRun<3>& run, long i) {
    run.solver->setInitialCondition(dropAt(path.at(i + 1)));
    run.solver->remeshNow();
  };
  return runSolverWorkload(o, w);
}

}  // namespace perfbench
