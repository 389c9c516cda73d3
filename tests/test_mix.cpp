// Tests for rigid+moldable mixing strategies (pt/mix.h), §5.1.
#include <gtest/gtest.h>

#include "core/validate.h"
#include "criteria/lower_bounds.h"
#include "pt/mix.h"
#include "workload/generators.h"

namespace lgs {
namespace {

JobSet mixed_workload(int seed, int n, int max_procs, Time window) {
  Rng rng(seed);
  MoldableWorkloadSpec mspec;
  mspec.count = n / 2;
  mspec.max_procs = max_procs;
  mspec.arrival_window = window;
  JobSet jobs = make_moldable_workload(mspec, rng);
  RigidWorkloadSpec rspec;
  rspec.count = n - n / 2;
  rspec.max_procs = max_procs;
  rspec.arrival_window = window;
  append_workload(jobs, make_rigid_workload(rspec, rng));
  return jobs;
}

TEST(Mix, SeparatePhasesOfflineOnly) {
  const JobSet jobs = mixed_workload(1, 20, 8, /*window=*/10.0);
  EXPECT_THROW(schedule_mixed(jobs, 16, MixStrategy::kSeparatePhases),
               std::invalid_argument);
}

TEST(Mix, StrategyNames) {
  EXPECT_STREQ(to_string(MixStrategy::kSeparatePhases), "separate-phases");
  EXPECT_STREQ(to_string(MixStrategy::kAprioriAllotment),
               "a-priori-allotment");
  EXPECT_STREQ(to_string(MixStrategy::kRigidIntoBatches),
               "rigid-into-batches");
}

TEST(Mix, PureRigidWorksUnderAllStrategies) {
  Rng rng(7);
  RigidWorkloadSpec spec;
  spec.count = 30;
  spec.max_procs = 6;
  const JobSet jobs = make_rigid_workload(spec, rng);
  for (MixStrategy strat :
       {MixStrategy::kSeparatePhases, MixStrategy::kAprioriAllotment,
        MixStrategy::kRigidIntoBatches}) {
    const Schedule s = schedule_mixed(jobs, 12, strat);
    EXPECT_TRUE(is_valid(jobs, s)) << to_string(strat);
  }
}

TEST(Mix, PureMoldableWorksUnderAllStrategies) {
  Rng rng(8);
  MoldableWorkloadSpec spec;
  spec.count = 30;
  spec.max_procs = 6;
  const JobSet jobs = make_moldable_workload(spec, rng);
  for (MixStrategy strat :
       {MixStrategy::kSeparatePhases, MixStrategy::kAprioriAllotment,
        MixStrategy::kRigidIntoBatches}) {
    const Schedule s = schedule_mixed(jobs, 12, strat);
    EXPECT_TRUE(is_valid(jobs, s)) << to_string(strat);
  }
}

// ---------------------------------------------------------------------------
// Property sweep over rigid fractions and strategies.
// ---------------------------------------------------------------------------

struct MixCase {
  int seed;
  MixStrategy strategy;
  bool online;
};

class MixProperty : public ::testing::TestWithParam<MixCase> {};

TEST_P(MixProperty, ValidAndBounded) {
  const MixCase& param = GetParam();
  const JobSet jobs =
      mixed_workload(param.seed, 60, 10, param.online ? 40.0 : 0.0);
  const int m = 20;
  const Schedule s = schedule_mixed(jobs, m, param.strategy);
  const auto violations = validate(jobs, s);
  EXPECT_TRUE(violations.empty()) << describe(violations);
  // Generous sanity band on makespan for any reasonable strategy.
  EXPECT_LE(s.makespan(), 6.0 * cmax_lower_bound(jobs, m));
}

// gtest names each case after the raw bytes of its parameter. A static array
// has zeroed padding, so those names stay the same from build to build.
const MixCase kMixCases[] = {
    {1, MixStrategy::kSeparatePhases, false},
    {2, MixStrategy::kSeparatePhases, false},
    {3, MixStrategy::kAprioriAllotment, false},
    {4, MixStrategy::kAprioriAllotment, true},
    {5, MixStrategy::kRigidIntoBatches, false},
    {6, MixStrategy::kRigidIntoBatches, true},
    {7, MixStrategy::kAprioriAllotment, true},
    {8, MixStrategy::kRigidIntoBatches, true}};

INSTANTIATE_TEST_SUITE_P(Sweep, MixProperty, ::testing::ValuesIn(kMixCases));

}  // namespace
}  // namespace lgs
