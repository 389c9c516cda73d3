// perfbench — end-to-end benchmark of the light-grid engines.
//
//   perfbench --workload exchange|backfill|service --seed N --seconds S
//             --trace 0|1 [--spans PATH]
//
// Prints progress and failed checks on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fputs(
      "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
      "[--spans PATH]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      cfg.workload = v;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (std::strcmp(flag, "--seconds") == 0) {
      cfg.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0.0)) return usage();
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (v != "0" && v != "1") return usage();
      cfg.trace = v == "1";
    } else if (std::strcmp(flag, "--spans") == 0) {
      cfg.spans_path = v;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  bool correct = r.tally.clean();
  for (const std::string& p : r.tally.problems())
    std::fprintf(stderr, "FAILED %s\n", p.c_str());

  std::string metrics;
  for (const perfbench::Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "FAILED metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", r.tally.attempted(), r.tally.failed(),
      metrics.c_str());
  return correct ? 0 : 1;
}
