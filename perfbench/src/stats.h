// Order statistics and failure accounting of one benchmark run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` (0 < p <= 100) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);
double median(const std::vector<double>& v);

/// The highest of the reporting percentiles 50, 90, 99, 99.9, 99.99 and
/// 99.999 that still has at least 10 of `n` samples beyond it, so a
/// reported tail is never a single outlier; 0 when even the median has
/// fewer than 10 samples above it.
double tail_percentile(std::size_t n);

/// Failure accounting.  Every replay or streamed pass adds its attempted
/// jobs; the jobs it lost count as failed, and when any of its checks
/// failed (a digest mismatch, a validator violation) ALL its jobs count
/// as failed.
class Tally {
 public:
  /// `problems` lists the failed checks of the pass (empty = clean).
  void add(const std::string& pass, long jobs, long completed,
           const std::vector<std::string>& problems);
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  double failed_frac() const {
    return attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
  }
  bool clean() const { return attempted_ > 0 && failed_ == 0; }
  /// "pass: problem" lines of every failed check, for stderr.
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> problems_;
};

/// "" when equal, else a "<what> digest <actual> != expected <expected>"
/// problem line.
std::string digest_problem(const char* what, std::uint64_t expected,
                           std::uint64_t actual);

}  // namespace perfbench
