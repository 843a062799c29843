#include "stats.h"

#include <gtest/gtest.h>

namespace zeus::perfbench {
namespace {

TEST(StatsTest, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 50), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 100), 4.0);
}

TEST(StatsTest, TailPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(SupportedTailPercentile(10000), 99.9);
  EXPECT_EQ(SupportedTailPercentile(1000), 99.0);
  EXPECT_EQ(SupportedTailPercentile(999), 95.0);
  EXPECT_EQ(SupportedTailPercentile(100), 90.0);
  EXPECT_EQ(SupportedTailPercentile(40), 75.0);
  EXPECT_EQ(SupportedTailPercentile(39), 50.0);
  EXPECT_EQ(SupportedTailPercentile(0), 50.0);
}

TEST(StatsTest, SummaryReportsQuartilesTailAndCount) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.n, 101u);
  EXPECT_DOUBLE_EQ(s.median, 51.0);
  EXPECT_DOUBLE_EQ(s.q1, 26.0);
  EXPECT_DOUBLE_EQ(s.q3, 76.0);
  EXPECT_EQ(s.tail_pct, 90.0);
  EXPECT_DOUBLE_EQ(s.tail, 91.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
}

TEST(StatsTest, RefusalCountsAsFailureAndMissedLimit) {
  Accounting a;
  a.Attempt("open", 5);
  a.Attempt("closed", 3);
  a.Refuse("open", "queue full");
  a.Fail("closed", "timeout");
  a.MissLimit("closed");
  EXPECT_EQ(a.attempted(), 8);
  EXPECT_EQ(a.failed(), 2);
  EXPECT_EQ(a.phases().at("open").failed, 1);
  EXPECT_EQ(a.phases().at("open").missed_limit, 1);
  EXPECT_EQ(a.phases().at("closed").failed, 1);
  EXPECT_EQ(a.phases().at("closed").missed_limit, 1);
  EXPECT_EQ(a.reasons().size(), 2u);
}

}  // namespace
}  // namespace zeus::perfbench
