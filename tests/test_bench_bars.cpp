// The absolute acceptance bars the regression-gated benches enforce on
// their own run (bench/common.hpp): bench_ext_tuner's --max-regret and
// bench_served's --min-qps/--min-scaling. Every bar must fail a NaN, and
// the tuner's must fail a sweep that ran nothing.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common.hpp"

namespace {

using lmo::bench::RegretCase;
using lmo::bench::regret_bar_failures;
using lmo::bench::served_bar_failures;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(BenchBars, RegretBarNamesEveryOffendingRow) {
  const std::vector<RegretCase> cases = {
      {"paper-16 scatter M=1 KB: chose 'linear'", 0.0},
      {"paper-16 gather M=64 KB: chose 'binomial seg=8 KB'", 0.25},
      {"multicore-16 bcast M=256 KB: chose 'chain'", 0.10},
      {"multicore-16 scatter M=4 KB: chose 'tree'", 0.11}};
  const auto failures = regret_bar_failures(cases, 0.10);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_NE(failures[0].find("paper-16 gather M=64 KB: chose "
                             "'binomial seg=8 KB', regret 25.0%"),
            std::string::npos)
      << failures[0];
  EXPECT_NE(failures[0].find("--max-regret 10.0%"), std::string::npos);
  EXPECT_NE(failures[1].find("multicore-16 scatter M=4 KB"),
            std::string::npos)
      << failures[1];
  // The bar itself passes: regret <= bar.
  EXPECT_TRUE(regret_bar_failures({cases[0], cases[2]}, 0.10).empty());
}

TEST(BenchBars, RegretBarFailsNaNAndEmptySweep) {
  const auto nan = regret_bar_failures({{"paper-16 reduce M=2 KB: chose "
                                         "'binomial'",
                                         kNaN}},
                                       0.10);
  ASSERT_EQ(nan.size(), 1u);
  EXPECT_NE(nan[0].find("paper-16 reduce M=2 KB"), std::string::npos);
  const auto empty = regret_bar_failures({}, 0.10);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_NE(empty[0].find("no cases"), std::string::npos);
}

TEST(BenchBars, ServedBarsFailBelowTheFloorAndNaN) {
  EXPECT_TRUE(served_bar_failures(846465.0, 10000.0, 1.2, 1.0).empty());
  // service_qps >= the floor.
  auto failures = served_bar_failures(8000.0, 10000.0, 1.2, 1.0);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("service_qps 8000"), std::string::npos);
  EXPECT_TRUE(served_bar_failures(10000.0, 10000.0, 1.2, 1.0).empty());
  EXPECT_EQ(served_bar_failures(kNaN, 10000.0, 1.2, 1.0).size(), 1u);
  // multi_reader_scaling strictly above its bar: 0.98, 1.0 and NaN fail.
  for (const double scaling : {0.98, 1.0, kNaN}) {
    failures = served_bar_failures(846465.0, 10000.0, scaling, 1.0);
    ASSERT_EQ(failures.size(), 1u) << scaling;
    EXPECT_NE(failures[0].find("multi_reader_scaling"), std::string::npos);
  }
  // Both bars report together; a bar of 0 is off.
  EXPECT_EQ(served_bar_failures(kNaN, 10000.0, kNaN, 1.0).size(), 2u);
  EXPECT_TRUE(served_bar_failures(kNaN, 0.0, kNaN, 0.0).empty());
}

}  // namespace
