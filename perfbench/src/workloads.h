// The benchmark's three workloads (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (empty = nowhere).
  std::string spans_path;
};

struct RunResult {
  std::vector<Metric> metrics;
  Tally tally;
};

/// Set up, measure and check one workload: "exchange", "backfill" or
/// "service" (std::invalid_argument otherwise).  Untraced runs report the
/// end-to-end metrics, traced runs the per-layer ones.
RunResult run_workload(const RunConfig& cfg);

}  // namespace perfbench
