// Tests for SMART shelf scheduling (pt/smart.h), §4.3.
#include <gtest/gtest.h>

#include "core/validate.h"
#include "criteria/lower_bounds.h"
#include "criteria/metrics.h"
#include "pt/smart.h"
#include "workload/generators.h"

namespace lgs {
namespace {

TEST(Smart, ShortHeavyShelfGoesFirst) {
  JobSet jobs;
  jobs.push_back(Job::rigid(0, 4, 8.0, 0.0, /*weight=*/1.0));  // long, light
  jobs.push_back(Job::rigid(1, 4, 1.0, 0.0, /*weight=*/10.0)); // short, heavy
  const Schedule s = smart_schedule(jobs, 4);
  EXPECT_TRUE(is_valid(jobs, s));
  // Smith's rule: shelf of job 1 (1/10) before shelf of job 0 (8/1).
  EXPECT_LT(s.find(1)->start, s.find(0)->start);
}

TEST(Smart, JobsOfSameClassShareShelf) {
  JobSet jobs;
  for (int i = 0; i < 4; ++i)
    jobs.push_back(Job::rigid(static_cast<JobId>(i), 1, 1.0));
  const Schedule s = smart_schedule(jobs, 4);
  for (const Assignment& a : s.assignments())
    EXPECT_DOUBLE_EQ(a.start, 0.0);  // all in the first (only) shelf
}

TEST(Smart, PowerOfTwoClasses) {
  // Durations 1 and 3: classes 0 (height 1) and 2 (height 4).
  JobSet jobs = {Job::rigid(0, 2, 1.0), Job::rigid(1, 2, 3.0)};
  const Schedule s = smart_schedule(jobs, 4);
  EXPECT_TRUE(is_valid(jobs, s));
  // Shelf order by Smith: 1/1 before 4/1 → job 0 at 0, job 1 at 1
  // (shelf heights are the power-of-two class heights, so job 1 starts at
  // the height of the first shelf).
  EXPECT_DOUBLE_EQ(s.find(0)->start, 0.0);
  EXPECT_DOUBLE_EQ(s.find(1)->start, 1.0);
}

TEST(Smart, RejectsReleaseDatesAndMoldable) {
  EXPECT_THROW(smart_schedule({Job::sequential(0, 1.0, 2.0)}, 4),
               std::invalid_argument);
  EXPECT_THROW(
      smart_schedule({Job::moldable(0, ExecModel::sequential(1.0), 1, 2)}, 4),
      std::invalid_argument);
}

TEST(Smart, EmptySet) { EXPECT_TRUE(smart_schedule({}, 4).empty()); }

// ---------------------------------------------------------------------------
// §4.3 quoted guarantees: 8 (unweighted) and 8.53 (weighted) on Σ wᵢCᵢ.
// The lower bound is ≤ OPT, so ratio-to-LB ≤ guarantee certifies the band.
// ---------------------------------------------------------------------------

struct SmartCase {
  int seed;
  bool weighted;
  bool sort_by_procs;
};

class SmartProperty : public ::testing::TestWithParam<SmartCase> {};

TEST_P(SmartProperty, WithinQuotedRatio) {
  const SmartCase& param = GetParam();
  Rng rng(param.seed);
  RigidWorkloadSpec spec;
  spec.count = 120;
  spec.max_procs = 14;
  if (param.weighted) {
    spec.w_min = 1.0;
    spec.w_max = 10.0;
  }
  const JobSet jobs = make_rigid_workload(spec, rng);
  const int m = 28;
  SmartOptions opts;
  opts.sort_by_procs = param.sort_by_procs;
  const Schedule s = smart_schedule(jobs, m, opts);
  const auto violations = validate(jobs, s);
  EXPECT_TRUE(violations.empty()) << describe(violations);

  const Metrics metrics = compute_metrics(jobs, s);
  const double lb = sum_weighted_completion_lower_bound(jobs, m);
  const double ratio = metrics.sum_weighted / lb;
  EXPECT_LE(ratio, param.weighted ? 8.53 : 8.0);
  EXPECT_GE(ratio, 1.0 - kRelEps);
}

// gtest names each case after the raw bytes of its parameter. A static array
// has zeroed padding, so those names stay the same from build to build.
const SmartCase kSmartCases[] = {
    {1, false, true}, {2, false, true}, {3, true, true},  {4, true, true},
    {5, false, false}, {6, true, false}, {7, true, true}, {8, false, true}};

INSTANTIATE_TEST_SUITE_P(Sweep, SmartProperty, ::testing::ValuesIn(kSmartCases));

}  // namespace
}  // namespace lgs
