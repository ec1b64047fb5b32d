#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace spotcheck {
namespace {

TEST(StreamingStatsTest, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(StreamingStatsTest, KnownMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStatsTest, MergeMatchesCombinedStream) {
  StreamingStats a;
  StreamingStats b;
  StreamingStats all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(StreamingStatsTest, MergeWithEmpty) {
  StreamingStats a;
  a.Add(1.0);
  StreamingStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_EQ(empty.mean(), 1.0);
}

TEST(EmpiricalDistributionTest, QuantilesOfKnownSet) {
  EmpiricalDistribution d;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    d.Add(x);
  }
  EXPECT_DOUBLE_EQ(d.Min(), 1.0);
  EXPECT_DOUBLE_EQ(d.Max(), 5.0);
  EXPECT_DOUBLE_EQ(d.Median(), 3.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 3.0);
}

TEST(EmpiricalDistributionTest, QuantileInterpolates) {
  EmpiricalDistribution d;
  d.Add(0.0);
  d.Add(10.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.1), 1.0);
}

TEST(EmpiricalDistributionTest, CdfAt) {
  EmpiricalDistribution d;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    d.Add(x);
  }
  EXPECT_DOUBLE_EQ(d.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.CdfAt(2.0), 0.5);
  EXPECT_DOUBLE_EQ(d.CdfAt(100.0), 1.0);
}

TEST(EmpiricalDistributionTest, CdfSeriesIsMonotone) {
  EmpiricalDistribution d;
  for (int i = 0; i < 1000; ++i) {
    d.Add(std::fmod(i * 0.618, 1.0));
  }
  const auto series = d.CdfSeries(50);
  ASSERT_EQ(series.size(), 50u);
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_LE(series[i - 1].cdf, series[i].cdf);
    EXPECT_LE(series[i - 1].x, series[i].x);
  }
  EXPECT_DOUBLE_EQ(series.back().cdf, 1.0);
}

TEST(EmpiricalDistributionTest, EmptyIsSafe) {
  EmpiricalDistribution d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.Quantile(0.5), 0.0);
  EXPECT_EQ(d.CdfAt(1.0), 0.0);
  EXPECT_TRUE(d.CdfSeries(10).empty());
}

TEST(PearsonCorrelationTest, PerfectAndAnti) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
}

TEST(PearsonCorrelationTest, DegenerateInputs) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> constant = {5, 5, 5};
  std::vector<double> shorter = {1, 2};
  EXPECT_EQ(PearsonCorrelation(x, constant), 0.0);
  EXPECT_EQ(PearsonCorrelation(x, shorter), 0.0);
}

TEST(CorrelationMatrixTest, SymmetricWithUnitDiagonal) {
  std::vector<std::vector<double>> series = {
      {1, 2, 3, 4}, {4, 3, 2, 1}, {1, 3, 2, 4}};
  const auto m = CorrelationMatrix(series);
  ASSERT_EQ(m.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(m[i][i], 1.0);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m[i][j], m[j][i]);
    }
  }
  EXPECT_NEAR(m[0][1], -1.0, 1e-12);
}

}  // namespace
}  // namespace spotcheck
