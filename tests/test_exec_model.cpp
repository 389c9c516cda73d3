// Unit + property tests for the execution-time models (core/exec_model.h).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/exec_model.h"

namespace lgs {
namespace {

TEST(ExecModel, SequentialIsConstant) {
  const ExecModel m = ExecModel::sequential(7.5);
  EXPECT_DOUBLE_EQ(m.time(1), 7.5);
  EXPECT_DOUBLE_EQ(m.time(64), 7.5);
  EXPECT_TRUE(m.is_sequential());
  EXPECT_EQ(m.useful_limit(64), 1);
}

TEST(ExecModel, AmdahlMatchesFormula) {
  const ExecModel m = ExecModel::amdahl(100.0, 0.1);
  EXPECT_DOUBLE_EQ(m.time(1), 100.0);
  EXPECT_DOUBLE_EQ(m.time(10), 100.0 * (0.1 + 0.9 / 10));
  EXPECT_NEAR(m.time(1000000), 10.0, 0.1);  // asymptote = serial fraction
}

TEST(ExecModel, PowerLawPerfectSpeedup) {
  const ExecModel m = ExecModel::power_law(64.0, 1.0);
  EXPECT_DOUBLE_EQ(m.time(64), 1.0);
  EXPECT_DOUBLE_EQ(m.work(64), 64.0);  // linear speedup: constant work
  EXPECT_DOUBLE_EQ(m.work(1), 64.0);
}

TEST(ExecModel, CommPenaltyClampsAtOptimum) {
  // t1 = 100, c = 1: unclamped curve minimized near k = 10.
  const ExecModel m = ExecModel::comm_penalty(100.0, 1.0);
  const int best = m.useful_limit(1000);
  EXPECT_NEAR(best, 10, 1);
  // Beyond the optimum the time must not increase.
  EXPECT_DOUBLE_EQ(m.time(best), m.time(best + 5));
  EXPECT_DOUBLE_EQ(m.time(best), m.time(1000));
}

TEST(ExecModel, TableIsMonotonized) {
  // A non-monotone table (time goes back up at k=3) must be clamped.
  const ExecModel m = ExecModel::table({10.0, 6.0, 8.0, 5.0});
  EXPECT_DOUBLE_EQ(m.time(1), 10.0);
  EXPECT_DOUBLE_EQ(m.time(2), 6.0);
  EXPECT_DOUBLE_EQ(m.time(3), 6.0);  // clamped
  EXPECT_DOUBLE_EQ(m.time(4), 5.0);
  EXPECT_DOUBLE_EQ(m.time(9), 5.0);  // beyond table: best value
}

TEST(ExecModel, TableUsefulLimit) {
  const ExecModel m = ExecModel::table({10.0, 6.0, 6.0, 6.0});
  EXPECT_EQ(m.useful_limit(4), 2);
  EXPECT_EQ(m.useful_limit(1), 1);
}

TEST(ExecModel, InvalidArguments) {
  EXPECT_THROW(ExecModel::sequential(0.0), std::invalid_argument);
  EXPECT_THROW(ExecModel::sequential(-1.0), std::invalid_argument);
  EXPECT_THROW(ExecModel::amdahl(10.0, -0.1), std::invalid_argument);
  EXPECT_THROW(ExecModel::amdahl(10.0, 1.1), std::invalid_argument);
  EXPECT_THROW(ExecModel::power_law(10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(ExecModel::power_law(10.0, 1.5), std::invalid_argument);
  EXPECT_THROW(ExecModel::comm_penalty(10.0, -1.0), std::invalid_argument);
  EXPECT_THROW(ExecModel::table({}), std::invalid_argument);
  EXPECT_THROW(ExecModel::table({1.0, -2.0}), std::invalid_argument);
  EXPECT_THROW(ExecModel::sequential(1.0).time(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property sweep: every model family must satisfy the §4 monotony
// assumptions — time non-increasing, work non-decreasing.
// ---------------------------------------------------------------------------

struct ModelCase {
  const char* name;
  ExecModel model;
};

// Without this gtest prints the raw bytes of the case, pointers included,
// and the ctest names would change from run to run.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

class MonotonyTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(MonotonyTest, TimeNonIncreasing) {
  const ExecModel& m = GetParam().model;
  for (int k = 1; k < 256; ++k)
    EXPECT_LE(m.time(k + 1), m.time(k) + 1e-12) << "at k=" << k;
}

TEST_P(MonotonyTest, WorkNonDecreasing) {
  const ExecModel& m = GetParam().model;
  for (int k = 1; k < 256; ++k)
    EXPECT_GE(m.work(k + 1), m.work(k) - 1e-9) << "at k=" << k;
}

TEST_P(MonotonyTest, UsefulLimitIsArgmin) {
  const ExecModel& m = GetParam().model;
  const int lim = m.useful_limit(256);
  ASSERT_GE(lim, 1);
  ASSERT_LE(lim, 256);
  EXPECT_NEAR(m.time(lim), m.time(256), 1e-12);
  if (lim > 1) {
    EXPECT_GT(m.time(lim - 1), m.time(256) - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, MonotonyTest,
    ::testing::Values(
        ModelCase{"seq", ExecModel::sequential(5.0)},
        ModelCase{"amdahl_lo", ExecModel::amdahl(40.0, 0.02)},
        ModelCase{"amdahl_hi", ExecModel::amdahl(40.0, 0.6)},
        ModelCase{"power_half", ExecModel::power_law(64.0, 0.5)},
        ModelCase{"power_one", ExecModel::power_law(64.0, 1.0)},
        ModelCase{"penalty_small", ExecModel::comm_penalty(100.0, 0.05)},
        ModelCase{"penalty_big", ExecModel::comm_penalty(100.0, 5.0)},
        ModelCase{"table", ExecModel::table({9, 5, 4, 4, 3.5, 3.2})}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lgs
