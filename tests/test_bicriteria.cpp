// Tests for the bi-criteria doubling-batch scheduler (pt/bicriteria.h),
// §4.4 — the algorithm behind Fig. 2.
#include <gtest/gtest.h>

#include "core/validate.h"
#include "criteria/lower_bounds.h"
#include "criteria/metrics.h"
#include "pt/bicriteria.h"
#include "workload/generators.h"

namespace lgs {
namespace {

TEST(Bicriteria, SingleJob) {
  JobSet jobs = {Job::sequential(0, 5.0)};
  const BicriteriaResult r = bicriteria_schedule(jobs, 4);
  EXPECT_TRUE(is_valid(jobs, r.schedule));
  EXPECT_EQ(r.batches, 1);
}

TEST(Bicriteria, HeavyJobsFinishEarly) {
  JobSet jobs;
  for (int i = 0; i < 20; ++i)
    jobs.push_back(
        Job::sequential(static_cast<JobId>(i), 4.0, 0.0, i == 7 ? 50.0 : 1.0));
  const BicriteriaResult r = bicriteria_schedule(jobs, 2);
  EXPECT_TRUE(is_valid(jobs, r.schedule));
  // The heavy job is placed in the earliest batch it fits.
  Time heavy_completion = r.schedule.completion(7);
  int earlier = 0;
  for (const Job& j : jobs)
    if (r.schedule.completion(j.id) < heavy_completion - kTimeEps) ++earlier;
  EXPECT_LE(earlier, 2) << "heavy job should be among the first to finish";
}

TEST(Bicriteria, ReleaseDatesDelayBatches) {
  JobSet jobs;
  jobs.push_back(Job::sequential(0, 1.0));
  jobs.push_back(Job::sequential(1, 1.0, /*release=*/100.0));
  const BicriteriaResult r = bicriteria_schedule(jobs, 4);
  EXPECT_TRUE(is_valid(jobs, r.schedule));
  EXPECT_GE(r.schedule.find(1)->start, 100.0 - kTimeEps);
}

TEST(Bicriteria, RejectsBadFactor) {
  BicriteriaOptions opts;
  opts.factor = 1.0;
  EXPECT_THROW(bicriteria_schedule({Job::sequential(0, 1.0)}, 4, opts),
               std::invalid_argument);
}

TEST(Bicriteria, EmptySet) {
  EXPECT_TRUE(bicriteria_schedule({}, 4).schedule.empty());
}

TEST(Bicriteria, BatchesGrowGeometrically) {
  Rng rng(5);
  MoldableWorkloadSpec spec;
  spec.count = 120;
  spec.max_procs = 8;
  const JobSet jobs = make_moldable_workload(spec, rng);
  BicriteriaOptions opts;
  opts.factor = 2.0;
  const BicriteriaResult r = bicriteria_schedule(jobs, 16, opts);
  EXPECT_TRUE(is_valid(jobs, r.schedule));
  EXPECT_GE(r.batches, 2);  // cannot fit everything under the first deadline
}

// ---------------------------------------------------------------------------
// The §4.4 point: simultaneous guarantees on both criteria.  Empirically the
// ratios of Fig. 2 stay below ~2.8; we assert generous certified bands that
// still catch regressions (both ratios vs lower bounds).
// ---------------------------------------------------------------------------

struct BicritCase {
  int seed;
  int jobs;
  bool parallel;
  double factor;
};

class BicriteriaProperty : public ::testing::TestWithParam<BicritCase> {};

TEST_P(BicriteriaProperty, BothCriteriaBounded) {
  const BicritCase& param = GetParam();
  Rng rng(param.seed);
  MoldableWorkloadSpec spec;
  spec.count = param.jobs;
  spec.max_procs = 20;
  spec.sequential_fraction = param.parallel ? 0.2 : 1.0;
  spec.arrival_window = 30.0;
  spec.w_min = 1.0;
  spec.w_max = 4.0;
  const JobSet jobs = make_moldable_workload(spec, rng);
  const int m = 100;
  BicriteriaOptions opts;
  opts.factor = param.factor;
  const BicriteriaResult r = bicriteria_schedule(jobs, m, opts);

  const auto violations = validate(jobs, r.schedule);
  EXPECT_TRUE(violations.empty()) << describe(violations);
  const Metrics metrics = compute_metrics(jobs, r.schedule);
  EXPECT_LE(metrics.cmax, 6.0 * cmax_lower_bound(jobs, m));
  EXPECT_LE(metrics.sum_weighted,
            8.0 * sum_weighted_completion_lower_bound(jobs, m));
}

// gtest names each case after the raw bytes of its parameter. A static array
// has zeroed padding, so those names stay the same from build to build.
const BicritCase kBicritCases[] = {
    {1, 50, true, 2.0},   {2, 200, true, 2.0},  {3, 50, false, 2.0},
    {4, 200, false, 2.0}, {5, 400, true, 2.0},  {6, 100, true, 1.5},
    {7, 100, true, 3.0},  {8, 100, false, 1.5}};

INSTANTIATE_TEST_SUITE_P(Sweep, BicriteriaProperty,
                         ::testing::ValuesIn(kBicritCases));

}  // namespace
}  // namespace lgs
