#include "src/market/market_analytics.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/market/spot_price_process.h"

namespace spotcheck {
namespace {

constexpr uint64_t kSeed = 77;

PriceTrace MakeStepTrace() {
  // 300s total: 200s at 0.02, 100s at 0.10.
  PriceTrace trace;
  trace.Append(SimTime::FromSeconds(0), 0.02);
  trace.Append(SimTime::FromSeconds(100), 0.10);
  trace.Append(SimTime::FromSeconds(200), 0.02);
  return trace;
}

TEST(AvailabilityVsBidTest, MonotoneNondecreasing) {
  const PriceTrace trace = MakeStepTrace();
  const auto curve = AvailabilityVsBid(trace, 0.10, SimTime(),
                                       SimTime::FromSeconds(300), 11);
  ASSERT_EQ(curve.size(), 11u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].availability, curve[i].availability);
  }
  EXPECT_DOUBLE_EQ(curve.front().bid_ratio, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().bid_ratio, 1.0);
  EXPECT_NEAR(curve.back().availability, 1.0, 1e-12);
}

TEST(RevocationProbabilityTest, ComplementsAvailability) {
  const PriceTrace trace = MakeStepTrace();
  const SimTime end = SimTime::FromSeconds(300);
  EXPECT_NEAR(RevocationProbability(trace, 0.05, SimTime(), end), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(RevocationProbability(trace, 0.10, SimTime(), end), 0.0, 1e-12);
}

TEST(CountBidCrossingsTest, CountsUpwardCrossingsOnly) {
  PriceTrace trace;
  trace.Append(SimTime::FromSeconds(0), 0.02);
  trace.Append(SimTime::FromSeconds(100), 0.10);  // cross up
  trace.Append(SimTime::FromSeconds(200), 0.02);  // cross down
  trace.Append(SimTime::FromSeconds(300), 0.20);  // cross up
  trace.Append(SimTime::FromSeconds(400), 0.30);  // still above: no new crossing
  trace.Append(SimTime::FromSeconds(500), 0.02);
  EXPECT_EQ(CountBidCrossings(trace, 0.05, SimTime(), SimTime::FromSeconds(600)), 2);
}

TEST(CountBidCrossingsTest, RespectsWindow) {
  PriceTrace trace;
  trace.Append(SimTime::FromSeconds(0), 0.02);
  trace.Append(SimTime::FromSeconds(100), 0.10);
  EXPECT_EQ(CountBidCrossings(trace, 0.05, SimTime(), SimTime::FromSeconds(50)), 0);
  EXPECT_EQ(CountBidCrossings(trace, 0.05, SimTime::FromSeconds(150),
                              SimTime::FromSeconds(200)),
            0);
}

// The windowed walk must count exactly what the whole-trace walk it
// replaced counted: that loop visited every point and skipped those outside
// [from, to). Random windows include empty ones, ones starting or ending on
// point times, ones past the trace's end, and from > to.
TEST(CountBidCrossingsTest, MatchesWholeTraceWalk) {
  const auto whole_trace_walk = [](const PriceTrace& trace, double bid,
                                   SimTime from, SimTime to) {
    int crossings = 0;
    bool above = trace.PriceAt(from) > bid;
    for (size_t i = 0; i < trace.size(); ++i) {
      const PricePoint p = trace.point(i);
      if (p.time < from || p.time >= to) {
        continue;
      }
      const bool now_above = p.price > bid;
      if (now_above && !above) {
        ++crossings;
      }
      above = now_above;
    }
    return crossings;
  };
  const MarketKey key{InstanceType::kM3Xlarge, AvailabilityZone{0}};
  const PriceTrace calibrated =
      GenerateMarketTrace(key, SimDuration::Days(20), kSeed);
  const double od = OnDemandPrice(key.type);
  PriceTrace ties;  // equal times: several points share an instant
  for (int i = 0; i < 400; ++i) {
    ties.Append(SimTime::FromSeconds(static_cast<double>(i / 3) * 60.0),
                0.01 * static_cast<double>(i % 7));
  }
  std::mt19937_64 rng(20261018);
  int nonzero = 0;
  for (const PriceTrace* trace :
       std::vector<const PriceTrace*>{&calibrated, &ties}) {
    ASSERT_FALSE(trace->empty());
    const int64_t end_us = trace->times_us().back();
    for (int k = 0; k < 2000; ++k) {
      const auto pick = [&]() -> int64_t {
        switch (rng() % 4) {
          case 0:  // exactly on a point
            return trace->times_us()[rng() % trace->size()];
          case 1:  // past the trace's end
            return end_us + static_cast<int64_t>(rng() % 1'000'000'000);
          default:
            return static_cast<int64_t>(rng() %
                                        static_cast<uint64_t>(end_us + 1));
        }
      };
      const SimTime from = SimTime::FromMicros(pick());
      const SimTime to =
          rng() % 8 == 0 ? from : SimTime::FromMicros(pick());  // empty window
      const double bid =
          trace == &ties ? 0.005 + static_cast<double>(rng() % 70) / 1000.0
                         : od * static_cast<double>(1 + rng() % 40) / 20.0;
      const int expected = whole_trace_walk(*trace, bid, from, to);
      ASSERT_EQ(CountBidCrossings(*trace, bid, from, to), expected)
          << "from " << from.micros() << " to " << to.micros() << " bid "
          << bid;
      nonzero += expected > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(nonzero, 100);
}

TEST(JumpDistributionsTest, CapturesBothDirections) {
  PriceTrace trace;
  trace.Append(SimTime(), 0.02);
  trace.Append(SimTime::FromSeconds(3600), 0.40);
  trace.Append(SimTime::FromSeconds(7200), 0.02);
  const auto dists =
      ComputeJumpDistributions(trace, SimTime(), SimTime() + SimDuration::Hours(3));
  EXPECT_EQ(dists.increasing.count(), 1u);
  EXPECT_EQ(dists.decreasing.count(), 1u);
  EXPECT_NEAR(dists.increasing.Max(), 1900.0, 1e-9);
}

TEST(PriceCorrelationMatrixTest, SyntheticMarketsAreUncorrelated) {
  // Figure 6(c)/(d): distinct markets move independently.
  std::vector<PriceTrace> traces;
  std::vector<const PriceTrace*> ptrs;
  for (int zone = 0; zone < 6; ++zone) {
    traces.push_back(GenerateMarketTrace(
        MarketKey{InstanceType::kM3Large, AvailabilityZone{zone}},
        SimDuration::Days(60), kSeed));
  }
  for (const auto& t : traces) {
    ptrs.push_back(&t);
  }
  const auto matrix =
      PriceCorrelationMatrix(ptrs, SimTime(), SimTime() + SimDuration::Days(60),
                             SimDuration::Hours(1));
  ASSERT_EQ(matrix.size(), 6u);
  for (size_t i = 0; i < matrix.size(); ++i) {
    EXPECT_DOUBLE_EQ(matrix[i][i], 1.0);
  }
  EXPECT_LT(MeanAbsOffDiagonal(matrix), 0.15);
}

TEST(PriceCorrelationMatrixTest, IdenticalTracesFullyCorrelated) {
  const PriceTrace trace = GenerateMarketTrace(
      MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
      SimDuration::Days(30), kSeed);
  const auto matrix = PriceCorrelationMatrix(
      {&trace, &trace}, SimTime(), SimTime() + SimDuration::Days(30),
      SimDuration::Hours(1));
  EXPECT_NEAR(matrix[0][1], 1.0, 1e-9);
}

TEST(FindKneeRatioTest, StepTraceKneeAtTheSpikeLevel) {
  // 200s at 0.02, 100s at 0.10: bidding >= 0.10 is fully available and any
  // less drops availability, so the knee sits at ratio 0.10/od.
  const PriceTrace trace = MakeStepTrace();
  const double knee =
      FindKneeRatio(trace, 0.10, SimTime(), SimTime::FromSeconds(300));
  EXPECT_NEAR(knee, 1.0, 0.02);
}

TEST(FindKneeRatioTest, CalibratedMarketKneeBelowOnDemand) {
  // Figure 6(a): the knee of the availability-bid curve is slightly below
  // the on-demand price -- spikes jump far above it, so bidding past it
  // gains (nearly) nothing.
  const PriceTrace trace = GenerateMarketTrace(
      MarketKey{InstanceType::kM3Large, AvailabilityZone{0}},
      SimDuration::Days(180), 2);
  const double knee =
      FindKneeRatio(trace, OnDemandPrice(InstanceType::kM3Large), SimTime(),
                    SimTime() + SimDuration::Days(180), /*epsilon=*/0.01);
  EXPECT_GT(knee, 0.1);
  EXPECT_LT(knee, 1.1);
}

TEST(FindKneeRatioTest, DegenerateInputs) {
  const PriceTrace trace = MakeStepTrace();
  EXPECT_EQ(FindKneeRatio(trace, 0.10, SimTime(), SimTime::FromSeconds(300),
                          0.005, 2.0, 1),
            2.0);
  EXPECT_EQ(FindKneeRatio(trace, 0.10, SimTime(), SimTime::FromSeconds(300),
                          0.005, 0.0),
            0.0);
}

TEST(MeanAbsOffDiagonalTest, SimpleMatrix) {
  const std::vector<std::vector<double>> m = {{1.0, 0.5}, {0.5, 1.0}};
  EXPECT_DOUBLE_EQ(MeanAbsOffDiagonal(m), 0.5);
  EXPECT_DOUBLE_EQ(MeanAbsOffDiagonal({{1.0}}), 0.0);
}

}  // namespace
}  // namespace spotcheck
