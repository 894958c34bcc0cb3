// The three workloads. Why each exists, what it loads and what it leaves
// idle is recorded in perfbench/README.md.
#pragma once

#include "harness.hpp"

namespace perfbench {

RunResult runBubble2d(const RunOptions& o);
RunResult runFarmSweep(const RunOptions& o);
RunResult runDropAdapt3d(const RunOptions& o);

}  // namespace perfbench
