#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t k = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double tail_percentile(std::size_t n) {
  static const double kLevels[] = {99.999, 99.99, 99.9, 99.0, 90.0, 50.0};
  for (const double p : kLevels)
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  return 0.0;
}

void Tally::add(const std::string& pass, long jobs, long completed,
                const std::vector<std::string>& problems) {
  attempted_ += jobs;
  if (!problems.empty()) {
    failed_ += jobs;
    for (const std::string& p : problems) problems_.push_back(pass + ": " + p);
  } else if (completed < jobs) {
    failed_ += jobs - completed;
    problems_.push_back(pass + ": " + std::to_string(jobs - completed) +
                        " jobs lost");
  }
}

std::string digest_problem(const char* what, std::uint64_t expected,
                           std::uint64_t actual) {
  if (expected == actual) return "";
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s digest %016llx != expected %016llx", what,
                static_cast<unsigned long long>(actual),
                static_cast<unsigned long long>(expected));
  return buf;
}

}  // namespace perfbench
