// Tests for greedy list scheduling (pt/rigid_list.h).
#include <gtest/gtest.h>

#include "core/validate.h"
#include "criteria/lower_bounds.h"
#include "criteria/metrics.h"
#include "workload/generators.h"
#include "pt/rigid_list.h"

namespace lgs {
namespace {

TEST(RigidList, SequentialFillsMachines) {
  JobSet jobs;
  for (int i = 0; i < 4; ++i)
    jobs.push_back(Job::sequential(static_cast<JobId>(i), 2.0));
  const Schedule s = list_schedule_rigid(jobs, 2);
  EXPECT_TRUE(is_valid(jobs, s));
  EXPECT_DOUBLE_EQ(s.makespan(), 4.0);  // 4 unit-pairs on 2 machines
}

TEST(RigidList, RespectsReleaseDates) {
  JobSet jobs = {Job::sequential(0, 1.0, 10.0)};
  const Schedule s = list_schedule_rigid(jobs, 4);
  EXPECT_DOUBLE_EQ(s.find(0)->start, 10.0);
}

TEST(RigidList, GreedyBackfillsAroundWideJob) {
  JobSet jobs;
  jobs.push_back(Job::rigid(0, 4, 10.0));     // occupies everything
  jobs.push_back(Job::rigid(1, 4, 1.0, 1.0)); // must wait for job 0
  jobs.push_back(Job::sequential(2, 2.0, 1.0));
  // Greedy (non-strict): job 2 cannot fit beside job 0 (4 procs taken)...
  const Schedule greedy = list_schedule_rigid(jobs, 4);
  EXPECT_TRUE(is_valid(jobs, greedy));
  // ...but with 5 machines it starts at its release even though job 1
  // (earlier in the queue) is still waiting.
  const Schedule wide = list_schedule_rigid(jobs, 5);
  EXPECT_DOUBLE_EQ(wide.find(2)->start, 1.0);
  // Strict FCFS forbids the jump.
  const Schedule strict =
      list_schedule_rigid(jobs, 5, {ListOrder::kSubmission, true});
  EXPECT_GT(strict.find(2)->start, 1.0);
  EXPECT_TRUE(is_valid(jobs, strict));
}

TEST(RigidList, RejectsMoldableInput) {
  JobSet jobs = {Job::moldable(0, ExecModel::power_law(8, 1.0), 1, 8)};
  EXPECT_THROW(list_schedule_rigid(jobs, 8), std::invalid_argument);
}

TEST(RigidList, LptOrderSchedulesLongJobsFirst) {
  JobSet jobs = {Job::sequential(0, 1.0), Job::sequential(1, 9.0)};
  const Schedule s = list_schedule_rigid(jobs, 1, {ListOrder::kLongestFirst, false});
  EXPECT_DOUBLE_EQ(s.find(1)->start, 0.0);
  const Schedule spt = list_schedule_rigid(jobs, 1, {ListOrder::kShortestFirst, false});
  EXPECT_DOUBLE_EQ(spt.find(0)->start, 0.0);
}

TEST(RigidList, EmptyJobSet) {
  const Schedule s = list_schedule_rigid({}, 4);
  EXPECT_TRUE(s.empty());
}

// ---------------------------------------------------------------------------
// Properties over random instances and all queue orders.
// ---------------------------------------------------------------------------

struct ListCase {
  int seed;
  ListOrder order;
  bool strict;
};

class RigidListProperty : public ::testing::TestWithParam<ListCase> {};

TEST_P(RigidListProperty, ValidAndBounded) {
  const ListCase& param = GetParam();
  Rng rng(param.seed);
  RigidWorkloadSpec spec;
  spec.count = 120;
  spec.max_procs = 10;
  spec.arrival_window = param.seed % 2 ? 50.0 : 0.0;
  const JobSet jobs = make_rigid_workload(spec, rng);
  const int m = 20;
  const Schedule s =
      list_schedule_rigid(jobs, m, {param.order, param.strict});
  const auto violations = validate(jobs, s);
  EXPECT_TRUE(violations.empty()) << describe(violations);
  // Off-line greedy list scheduling of rigid tasks is (2 - 1/m)-competitive
  // with max-proc demand <= m/2; keep a generous sanity band that any
  // reasonable list schedule must satisfy.
  const Time lb = cmax_lower_bound(jobs, m);
  EXPECT_LE(s.makespan(), 4.0 * lb) << "suspiciously bad list schedule";
}

// gtest names each case after the raw bytes of its parameter. A static array
// has zeroed padding, so those names stay the same from build to build.
const ListCase kListCases[] = {
    {1, ListOrder::kSubmission, false},    {2, ListOrder::kSubmission, true},
    {3, ListOrder::kLongestFirst, false},  {4, ListOrder::kShortestFirst, false},
    {5, ListOrder::kWidestFirst, false},   {6, ListOrder::kWeightDensity, false},
    {7, ListOrder::kLongestFirst, true},   {8, ListOrder::kWidestFirst, true}};

INSTANTIATE_TEST_SUITE_P(Sweep, RigidListProperty,
                         ::testing::ValuesIn(kListCases));

}  // namespace
}  // namespace lgs
