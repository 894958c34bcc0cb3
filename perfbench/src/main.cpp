// perfbench: runs one workload for a fixed time and prints its metrics.
//
//   perfbench --workload <bubble-2d|drop-adapt3d|farm-sweep> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics (end-to-end metrics untraced, per-layer metrics traced)
// and a detail block. perfbench/run.py builds this binary, runs it, and
// checks the output against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// Per-layer metrics every traced run reports, in BENCHMARK.json order. A
/// layer a workload leaves idle reports 0.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"chns.ch_solve_s", "s"},          {"la.ch_vcycle_s", "s"},
    {"la.op_apply_s", "s"},            {"fem.matvec_melem_per_s", "Melem/s"},
    {"la.newton_iters", "count"},      {"la.ch_krylov_iters", "count"},
    {"la.vcycles", "count"},           {"chns.pp_solve_s", "s"},
    {"la.pp_vcycle_s", "s"},           {"la.pp_krylov_iters", "count"},
    {"chns.ns_solve_s", "s"},          {"la.ns_vcycle_s", "s"},
    {"la.ns_krylov_iters", "count"},   {"chns.vu_solve_s", "s"},
    {"la.vu_krylov_iters", "count"},   {"la.assemble_s", "s"},
    {"la.gmg_hierarchy_builds", "count"}, {"la.gmg_degraded", "count"},
    {"mesh.build_s", "s"},             {"mesh.elems", "count"},
    {"octree.balance_s", "s"},         {"octree.repartition_s", "s"},
    {"amr.refine_s", "s"},             {"amr.coarsen_s", "s"},
    {"intergrid.transfer_s", "s"},     {"localcahn.identify_s", "s"},
    {"chns.remesh_s", "s"},            {"chns.mesh_rebuilds", "count"},
    {"chns.noop_remeshes", "count"},   {"amr.remesh_changed_frac", "ratio"},
    {"sim.collectives_per_op", "count"}, {"sim.messages_per_op", "count"},
    {"sim.bytes_per_op", "B"},         {"io.ck_write_s", "s"},
    {"io.ck_bytes", "B"},              {"io.ck_restore_s", "s"},
    {"farm.queue_wait_s", "s"},        {"farm.init_build_s", "s"},
    {"farm.init_restore_s", "s"},      {"farm.init_cache_hit_frac", "ratio"},
    {"support.pool_busy_frac", "ratio"}, {"support.speedup_4t", "ratio"},
    {"bench.phase_coverage", "ratio"}, {"bench.trace_overhead_s", "s"},
    {"host.calib_start_s", "s"},       {"host.calib_end_s", "s"},
    {"host.steal_frac", "ratio"},
};

/// Counts that must repeat bitwise across two traced runs at one seed.
const std::vector<const char*> kExact = {
    "la.newton_iters",       "la.ch_krylov_iters",    "la.ns_krylov_iters",
    "la.pp_krylov_iters",    "la.vu_krylov_iters",    "la.vcycles",
    "la.gmg_hierarchy_builds", "la.gmg_degraded",     "mesh.elems",
    "chns.mesh_rebuilds",    "chns.noop_remeshes",    "amr.remesh_changed_frac",
    "sim.collectives_per_op", "sim.messages_per_op",  "sim.bytes_per_op",
    "io.ck_bytes",
};

/// Highest rung with at least ten ops beyond it in `n` ops. Called with the
/// op count every run of the workload reaches, so each run of a workload
/// reports the same percentile however many ops a fast host fits.
double tailPercentile(long n) {
  double best = 50;
  for (double p : {75.0, 90.0, 95.0, 99.0, 99.9})
    if (double(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) best = p;
  return best;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <bubble-2d|drop-adapt3d|"
               "farm-sweep> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--out-dir") o.outDir = v;
    else return usage();
  }
  RunResult (*fn)(const RunOptions&) = nullptr;
  if (o.workload == "bubble-2d") fn = runBubble2d;
  else if (o.workload == "drop-adapt3d") fn = runDropAdapt3d;
  else if (o.workload == "farm-sweep") fn = runFarmSweep;
  else return usage();
  std::filesystem::create_directories(o.outDir);

  const HostProbe h0 = HostProbe::take();
  RunResult res;
  try {
    res = fn(o);
  } catch (const std::exception& e) {
    res.fail(std::string("run aborted: ") + e.what());
    if (res.attempted == 0) res.attempted = 1;
  }
  const HostProbe h1 = HostProbe::take();
  const double steal = h1.totalTicks > h0.totalTicks
                           ? (h1.stealTicks - h0.stealTicks) /
                                 (h1.totalTicks - h0.totalTicks)
                           : 0.0;

  std::vector<double> all = res.opWall;
  all.insert(all.end(), res.opWallUntraced.begin(), res.opWallUntraced.end());
  const std::size_t n = all.size();
  const double tailP = tailPercentile(res.minOps);

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"op_s.p50", median(all), "s"},
        {"op_s.tail", percentile(all, tailP), "s"},
        {"ops_per_hour", res.busyWall > 0 ? 3600.0 * double(n) / res.busyWall
                                          : 0.0,
         "1/h"},
        {"cpu_s_per_op", n ? res.opCpu / double(n) : 0.0, "s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
        {"setup_s", median(res.setupS), "s"},
    };
  } else {
    std::map<std::string, double> got;
    for (const Metric& m : res.layer) got[m.name] = m.value;
    got["support.pool_busy_frac"] =
        res.busyWall > 0 ? res.opCpu / (res.busyWall * res.threads) : 0.0;
    got["bench.trace_overhead_s"] =
        res.opWallUntraced.empty()
            ? 0.0
            : median(res.opWall) - median(res.opWallUntraced);
    got["host.calib_start_s"] = h0.calibS;
    got["host.calib_end_s"] = h1.calibS;
    got["host.steal_frac"] = steal;
    for (const auto& [name, unit] : kPerLayer)
      metrics.push_back({name, got.count(name) ? got[name] : 0.0, unit});
    // run.py reads the spans back from this file for the self-time table.
    const std::string path = o.outDir + "/trace-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    if (pt::obs::Tracer::instance().writeChromeTrace(path))
      std::printf("trace written to %s\n", path.c_str());
  }

  if (res.failed > res.attempted) res.failed = res.attempted;
  const bool correct = res.failed == 0 && res.attempted > 0;
  for (const auto& note : res.notes) std::printf("note: %s\n", note.c_str());
  for (const auto& p : res.problems) std::printf("FAILED: %s\n", p.c_str());

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "}, \"detail\": {\"ops\": %zu, \"tail_percentile\": %g, "
                "\"op_s_p50\": %.9g, "
                "\"setup_reps\": %zu, \"threads\": %d, "
                "\"calib_start_s\": %.6g, \"calib_end_s\": %.6g, "
                "\"steal_frac\": %.6g, \"exact\": [",
                n, tailP, median(res.opWall), res.setupS.size(), res.threads,
                h0.calibS, h1.calibS, steal);
  out += buf;
  for (std::size_t i = 0; i < kExact.size(); ++i)
    out += std::string(i ? ", " : "") + "\"" + kExact[i] + "\"";
  out += "], \"problems\": [";
  for (std::size_t i = 0; i < res.problems.size(); ++i)
    out += std::string(i ? ", " : "") + "\"" + jsonEscape(res.problems[i]) +
           "\"";
  out += "]}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
