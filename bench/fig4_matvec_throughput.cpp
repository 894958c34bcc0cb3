// MATVEC throughput (elements/sec) across the engine variants introduced
// with the traversal plans and the SIMD microkernels (paper Sec II-D /
// Fig 4 territory, single node). The static ladder isolates one change per
// step, all on the same 3D adaptive mesh with hanging corners:
//
//   naive            one element at a time, weighted gather/scatter for
//                    every corner, closed-form per-corner mass/stiffness
//                    applies through a type-erased std::function kernel
//   planned          plan-aware traversal (pure fast path) with the
//                    per-level cached dense A_e = B^T D B applied one
//                    element at a time (AoS GEMV, kernel inlined through
//                    the template) — the operator-caching win, no batching
//   planned+batched  cached A_e applied to uniform-level batches as panel
//                    GEMMs (matvecUniform, runtime-dispatched SIMD tier)
//
// The mesh lives on one simulated rank and matvecUniform runs a rank's
// batches in order on one thread, so the pool width does not enter.
//
// On top of the ladder, per-ISA-tier configs are registered at runtime for
// every tier the CPU supports (names suffixed /scalar, /avx2, /avx512):
//
//   BM_MatvecPlannedBatched/<tier>     adaptive mesh — end-to-end engine,
//                                      hanging-element sweep included
//   BM_MatvecBatchedUniformMesh/<tier> hanging-free uniform level-4 mesh —
//                                      isolates the batched panel path the
//                                      microkernels target
//   BM_MatvecP2Dense / BM_MatvecP2Factored
//                                      degree-2 scalar Helmholtz on the
//                                      uniform mesh: dense panel GEMM vs
//                                      sum-factorized tensor kernel
//
// Operator: Helmholtz-type massCoef*M + stiffCoef*K, ndof = 5 (p = 1
// configs). Wrap with bench/run_matvec_bench.sh to dump BENCH_matvec.json
// (unified "pt-bench-v1" schema from obs/report.hpp; info.simd_isa records
// the tier the default-dispatch configs ran at).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "fem/matvec.hpp"
#include "fem/matvec_batched.hpp"
#include "fem/pspace.hpp"
#include "mesh/mesh.hpp"
#include "obs/report.hpp"
#include "octree/balance.hpp"
#include "support/buildinfo.hpp"

namespace {

using namespace pt;

constexpr int kNdof = 5;
constexpr Real kMass = 1.3, kStiff = 0.7;

sim::SimComm& comm() {
  static sim::SimComm c(1, sim::Machine::loopback());
  return c;
}

Mesh<3>& mesh() {
  static Mesh<3> m = [] {
    OctList<3> tree;
    buildTree<3>(
        Octant<3>::root(),
        [](const Octant<3>& o) -> Level {
          auto c = o.centerCoords();
          Real r2 = 0;
          for (int d = 0; d < 3; ++d) r2 += (c[d] - 0.5) * (c[d] - 0.5);
          const Real dist = std::abs(std::sqrt(r2) - 0.3);
          return dist < 2.0 * o.physSize() ? 5 : 2;
        },
        tree);
    tree = balanceTree(tree);
    auto dt = DistTree<3>::fromGlobal(comm(), tree);
    return Mesh<3>::build(comm(), dt);
  }();
  return m;
}

/// Hanging-free companion mesh: uniform level 4 (4096 elements). Every
/// element lands in a pure batch, so the batched configs on this mesh
/// measure gather + panel GEMM + scatter and nothing else.
Mesh<3>& uniformMesh() {
  static Mesh<3> m = [] {
    OctList<3> tree;
    buildTree<3>(
        Octant<3>::root(), [](const Octant<3>&) -> Level { return 4; },
        tree);
    auto dt = DistTree<3>::fromGlobal(comm(), tree);
    return Mesh<3>::build(comm(), dt);
  }();
  return m;
}

std::size_t countElems(const Mesh<3>& m) {
  std::size_t n = 0;
  for (int r = 0; r < m.nRanks(); ++r) n += m.rank(r).nElems();
  return n;
}

Field makeInput(const Mesh<3>& m) {
  Field f = m.makeField(kNdof);
  fem::setByPosition<3>(m, f, kNdof, [](const VecN<3>& pos, Real* out) {
    Real s = 0;
    for (int d = 0; d < 3; ++d) s += (d + 1.0) * pos[d];
    for (int d = 0; d < kNdof; ++d) out[d] = std::sin(3.0 * s + d);
  });
  return f;
}

Field& input() {
  static Field x = makeInput(mesh());
  return x;
}

Field& uniformInput() {
  static Field x = makeInput(uniformMesh());
  return x;
}

fem::PSpace<3, 2>& p2space() {
  static fem::PSpace<3, 2> ps(uniformMesh());
  return ps;
}

Field& p2input() {
  static Field x = [] {
    const auto& ps = p2space();
    Field f = ps.makeField();
    for (int r = 0; r < ps.nRanks(); ++r)
      for (std::uint32_t i = 0; i < ps.rank(r).nNodes(); ++i) {
        const VecN<3> p = ps.nodeCoords(r, i);
        f[r][i] = std::sin(3.0 * (p[0] + 2.0 * p[1] + 3.0 * p[2]));
      }
    return f;
  }();
  return x;
}

/// The pre-plan style kernel: per-dof closed-form mass + stiffness applies.
void helmholtz(const Octant<3>& oct, const Real* in, Real* out) {
  constexpr int kC = kNumChildren<3>;
  Real col[kC], res[kC];
  for (int d = 0; d < kNdof; ++d) {
    for (int i = 0; i < kC; ++i) {
      col[i] = in[i * kNdof + d];
      res[i] = 0.0;
    }
    fem::applyMass<3>(oct.physSize(), col, res);
    for (int i = 0; i < kC; ++i) out[i * kNdof + d] += kMass * res[i];
    for (int i = 0; i < kC; ++i) res[i] = 0.0;
    fem::applyStiffness<3>(oct.physSize(), col, res);
    for (int i = 0; i < kC; ++i) out[i * kNdof + d] += kStiff * res[i];
  }
}

void BM_MatvecNaive(benchmark::State& state) {
  Field y = mesh().makeField(kNdof);
  const fem::ElemKernel<3> kernel = helmholtz;  // type-erased, as before
  for (auto _ : state) {
    fem::matvecNaive<3>(mesh(), input(), y, kNdof, kernel);
    benchmark::DoNotOptimize(y[0].data());
  }
  state.SetItemsProcessed(state.iterations() * countElems(mesh()));
}
BENCHMARK(BM_MatvecNaive)->Unit(benchmark::kMillisecond);

void BM_MatvecPlanned(benchmark::State& state) {
  Field y = mesh().makeField(kNdof);
  // The planned engine's actual step beyond naive: the elemental operator
  // is assembled once per level and applied dense, element at a time. The
  // lambda (not a function pointer) inlines through the template.
  fem::LevelOperatorCache<3> cache(kMass, kStiff);
  std::array<const Real*, kMaxLevel + 1> ops{};
  for (int r = 0; r < mesh().nRanks(); ++r)
    for (const auto& e : mesh().rank(r).elems)
      ops[e.level] = cache.at(e.level).data();
  auto kernel = [&ops](const Octant<3>& oct, const Real* in, Real* out) {
    constexpr int kC = kNumChildren<3>;
    const Real* A = ops[oct.level];
    for (int i = 0; i < kC; ++i) {
      const Real* Ai = &A[std::size_t(i) * kC];
      for (int d = 0; d < kNdof; ++d) {
        Real acc = 0;
        for (int j = 0; j < kC; ++j) acc += Ai[j] * in[j * kNdof + d];
        out[i * kNdof + d] += acc;
      }
    }
  };
  for (auto _ : state) {
    fem::matvec<3>(mesh(), input(), y, kNdof, kernel);
    benchmark::DoNotOptimize(y[0].data());
  }
  state.SetItemsProcessed(state.iterations() * countElems(mesh()));
}
BENCHMARK(BM_MatvecPlanned)->Unit(benchmark::kMillisecond);

void BM_MatvecPlannedBatched(benchmark::State& state) {
  Field y = mesh().makeField(kNdof);
  for (auto _ : state) {
    fem::matvecUniform<3>(mesh(), input(), y, kNdof, kMass, kStiff);
    benchmark::DoNotOptimize(y[0].data());
  }
  state.SetItemsProcessed(state.iterations() * countElems(mesh()));
}
BENCHMARK(BM_MatvecPlannedBatched)->Unit(benchmark::kMillisecond);

/// Shared body for the per-tier configs registered in main().
void runBatchedTier(benchmark::State& state, Mesh<3>& m, Field& x,
                    fem::SimdIsa isa) {
  Field y = m.makeField(kNdof);
  for (auto _ : state) {
    fem::matvecUniform<3>(m, x, y, kNdof, kMass, kStiff, isa);
    benchmark::DoNotOptimize(y[0].data());
  }
  state.SetItemsProcessed(state.iterations() * countElems(m));
}

void BM_MatvecP2Dense(benchmark::State& state) {
  Field y = p2space().makeField();
  for (auto _ : state) {
    p2space().matvec(p2input(), y, kMass, kStiff);
    benchmark::DoNotOptimize(y[0].data());
  }
  state.SetItemsProcessed(state.iterations() * countElems(uniformMesh()));
}

void BM_MatvecP2Factored(benchmark::State& state) {
  Field y = p2space().makeField();
  for (auto _ : state) {
    p2space().matvecFactored(p2input(), y, kMass, kStiff);
    benchmark::DoNotOptimize(y[0].data());
  }
  state.SetItemsProcessed(state.iterations() * countElems(uniformMesh()));
}

/// Console output plus capture of every run for the pt-bench-v1 report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs)
      if (!r.error_occurred && r.run_type == Run::RT_Iteration)
        captured.push_back(r);
    ConsoleReporter::ReportRuns(runs);
  }
  std::vector<Run> captured;
};

}  // namespace

// Custom main: registers the per-tier configs for every ISA tier this CPU
// supports, and the captured runs are re-emitted as BENCH_matvec.json in
// the unified schema.
int main(int argc, char** argv) {
  pt::support::requireReleaseBuild("fig4_matvec_throughput");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  const int maxTier = pt::support::simdTier();
  for (int t = 0; t <= maxTier; ++t) {
    const auto isa = fem::SimdIsa(t);
    const std::string suffix = fem::simdIsaName(isa);
    benchmark::RegisterBenchmark(
        ("BM_MatvecPlannedBatched/" + suffix).c_str(),
        [isa](benchmark::State& s) {
          runBatchedTier(s, mesh(), input(), isa);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("BM_MatvecBatchedUniformMesh/" + suffix).c_str(),
        [isa](benchmark::State& s) {
          runBatchedTier(s, uniformMesh(), uniformInput(), isa);
        })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("BM_MatvecP2Dense", BM_MatvecP2Dense)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_MatvecP2Factored", BM_MatvecP2Factored)
      ->Unit(benchmark::kMillisecond);

  benchmark::AddCustomContext("pt_build_type", pt::support::buildType());
  benchmark::AddCustomContext("pt_optimized",
                              pt::support::buildIsOptimized() ? "1" : "0");
  benchmark::AddCustomContext("pt_simd_isa", pt::support::simdIsaName());
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  pt::obs::BenchReport rep("fig4_matvec_throughput");
  rep.info["build_type"] = pt::support::buildType();
  rep.info["simd_isa"] = pt::support::simdIsaName();
  rep.info["workload"] =
      "3D adaptive Helmholtz matvec, ndof=5, levels 2-5 (naive / planned / "
      "batched ladder + BM_MatvecPlannedBatched/<tier>)";
  rep.info["workload_uniform_mesh"] =
      "BM_MatvecBatchedUniformMesh/<tier>: hanging-free 3D uniform level-4 "
      "mesh (4096 elems), ndof=5 — isolates gather + panel GEMM + scatter";
  rep.info["workload_p2"] =
      "BM_MatvecP2{Dense,Factored}: degree-2 scalar Helmholtz on the "
      "uniform mesh — dense panel GEMM vs sum-factorized tensor kernel";
  for (const auto& run : reporter.captured) {
    pt::obs::BenchConfig c;
    c.name = run.benchmark_name();
    // Per-iteration real time in seconds (run.time_unit only affects the
    // console display; accumulated times are seconds).
    const double iters = run.iterations > 0 ? double(run.iterations) : 1.0;
    c.metrics["real_time_sec"] = run.real_accumulated_time / iters;
    c.metrics["cpu_time_sec"] = run.cpu_accumulated_time / iters;
    auto it = run.counters.find("items_per_second");
    if (it != run.counters.end())
      c.metrics["items_per_sec"] = double(it->second);
    rep.configs.push_back(std::move(c));
  }
  if (!rep.write("BENCH_matvec.json")) {
    std::perror("BENCH_matvec.json");
    return 1;
  }
  std::printf("\nwrote BENCH_matvec.json\n");
  return 0;
}
