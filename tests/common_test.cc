// Unit tests for zeus::common — Status/Result, Rng determinism and
// distributional sanity, running statistics, string utilities, CRC32.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/stringutil.h"

namespace zeus::common {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextIntCoversRangeInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int v = rng.NextInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(3);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(4);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto copy = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(5);
  Rng child = a.Fork();
  // The fork must not replay the parent's stream.
  EXPECT_NE(child.NextU64(), a.NextU64());
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PercentileTest, MedianAndExtremes) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
}

TEST(StringUtilTest, ToLowerTrimSplit) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(Trim("  x y  "), "x y");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, StartsWithAndFormat) {
  EXPECT_TRUE(StartsWith("select *", "select"));
  EXPECT_FALSE(StartsWith("sel", "select"));
  EXPECT_EQ(Format("%d-%s", 3, "x"), "3-x");
}

// ---------------------------------------------------------------------------
// CRC32

TEST(Crc32Test, MatchesKnownVectors) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  const char msg[] = "123456789";
  EXPECT_EQ(common::Crc32(0, msg, 9), 0xCBF43926u);
  // Empty input is the identity.
  EXPECT_EQ(common::Crc32(0, msg, 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesSingleShot) {
  const std::string data = "zeus localizes actions with reinforcement";
  uint32_t whole = common::Crc32(0, data.data(), data.size());
  uint32_t crc = 0;
  for (size_t i = 0; i < data.size(); i += 7) {
    size_t n = std::min<size_t>(7, data.size() - i);
    crc = common::Crc32(crc, data.data() + i, n);
  }
  EXPECT_EQ(crc, whole);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  uint32_t clean = common::Crc32(0, data.data(), data.size());
  data[100] = static_cast<char>(data[100] ^ 0x10);
  EXPECT_NE(common::Crc32(0, data.data(), data.size()), clean);
}

}  // namespace
}  // namespace zeus::common
