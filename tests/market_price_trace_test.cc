#include "src/market/price_trace.h"

#include <gtest/gtest.h>

namespace spotcheck {
namespace {

PriceTrace MakeStepTrace() {
  // 0s: $0.02, 100s: $0.10, 200s: $0.02.
  PriceTrace trace;
  trace.Append(SimTime::FromSeconds(0), 0.02);
  trace.Append(SimTime::FromSeconds(100), 0.10);
  trace.Append(SimTime::FromSeconds(200), 0.02);
  return trace;
}

TEST(PriceTraceTest, EmptyTraceIsSafe) {
  PriceTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.PriceAt(SimTime::FromSeconds(10)), 0.0);
  EXPECT_EQ(trace.MeanPrice(SimTime(), SimTime::FromSeconds(10)), 0.0);
}

TEST(PriceTraceTest, PriceAtHoldsBetweenPoints) {
  const PriceTrace trace = MakeStepTrace();
  EXPECT_DOUBLE_EQ(trace.PriceAt(SimTime::FromSeconds(0)), 0.02);
  EXPECT_DOUBLE_EQ(trace.PriceAt(SimTime::FromSeconds(99)), 0.02);
  EXPECT_DOUBLE_EQ(trace.PriceAt(SimTime::FromSeconds(100)), 0.10);
  EXPECT_DOUBLE_EQ(trace.PriceAt(SimTime::FromSeconds(150)), 0.10);
  EXPECT_DOUBLE_EQ(trace.PriceAt(SimTime::FromSeconds(250)), 0.02);
}

TEST(PriceTraceTest, PriceBeforeFirstPointUsesFirstPrice) {
  PriceTrace trace;
  trace.Append(SimTime::FromSeconds(50), 0.05);
  EXPECT_DOUBLE_EQ(trace.PriceAt(SimTime::FromSeconds(0)), 0.05);
}

TEST(PriceTraceTest, OutOfOrderAppendIgnored) {
  PriceTrace trace = MakeStepTrace();
  trace.Append(SimTime::FromSeconds(50), 9.99);
  EXPECT_EQ(trace.size(), 3u);
}

TEST(PriceTraceTest, MeanPriceIsTimeWeighted) {
  const PriceTrace trace = MakeStepTrace();
  // [0,200): 100s at 0.02 + 100s at 0.10 -> 0.06.
  EXPECT_NEAR(trace.MeanPrice(SimTime(), SimTime::FromSeconds(200)), 0.06, 1e-12);
  // [50,150): 50s at 0.02 + 50s at 0.10 -> 0.06.
  EXPECT_NEAR(trace.MeanPrice(SimTime::FromSeconds(50), SimTime::FromSeconds(150)),
              0.06, 1e-12);
}

TEST(PriceTraceTest, FractionAtOrBelow) {
  const PriceTrace trace = MakeStepTrace();
  // Over [0, 300): 200s at 0.02, 100s at 0.10.
  const SimTime end = SimTime::FromSeconds(300);
  EXPECT_NEAR(trace.FractionAtOrBelow(0.05, SimTime(), end), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(trace.FractionAtOrBelow(0.10, SimTime(), end), 1.0, 1e-12);
  EXPECT_NEAR(trace.FractionAtOrBelow(0.01, SimTime(), end), 0.0, 1e-12);
}

TEST(PriceTraceTest, SampleGridLength) {
  const PriceTrace trace = MakeStepTrace();
  const auto grid = trace.SampleGrid(SimTime(), SimTime::FromSeconds(300),
                                     SimDuration::Seconds(50));
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_DOUBLE_EQ(grid[0], 0.02);
  EXPECT_DOUBLE_EQ(grid[2], 0.10);
  EXPECT_DOUBLE_EQ(grid[5], 0.02);
}

TEST(PriceTraceTest, HourlyJumpsSplitBySign) {
  PriceTrace trace;
  trace.Append(SimTime(), 0.02);
  trace.Append(SimTime::FromSeconds(3600), 0.20);   // +900%
  trace.Append(SimTime::FromSeconds(7200), 0.02);   // -90%
  const auto jumps =
      trace.HourlyJumps(SimTime(), SimTime() + SimDuration::Hours(3));
  ASSERT_EQ(jumps.increasing.size(), 1u);
  ASSERT_EQ(jumps.decreasing.size(), 1u);
  EXPECT_NEAR(jumps.increasing[0], 900.0, 1e-9);
  EXPECT_NEAR(jumps.decreasing[0], 90.0, 1e-9);
}

TEST(PriceTraceTest, CsvRoundTrip) {
  const PriceTrace trace = MakeStepTrace();
  const PriceTrace parsed = PriceTrace::FromCsv(trace.ToCsv());
  ASSERT_EQ(parsed.size(), trace.size());
  EXPECT_DOUBLE_EQ(parsed.PriceAt(SimTime::FromSeconds(150)), 0.10);
}

TEST(PriceTraceTest, FromCsvRejectsTheWholeTraceOnAnyBadRow) {
  const char* kBad[] = {
      "time_s,price\n0,0.02\n",       // header row
      "0,0.02\n100\n",                // one field
      "0,0.02\n100,0.10,x\n",         // three fields
      "0,0.02\n100x,0.10\n",          // trailing garbage
      "0,nan\n",                       // non-finite price
      "inf,0.02\n",                    // non-finite time
      "-1,0.02\n",                     // negative time
      "1e300,0.02\n",                  // beyond SimTime
      "9223372036854.775807,0.02\n",   // rounds to 2^63 us
  };
  for (const char* text : kBad) {
    EXPECT_TRUE(PriceTrace::FromCsv(text).empty()) << "'" << text << "'";
  }
  // The largest whole second SimTime can hold still loads.
  EXPECT_EQ(PriceTrace::FromCsv("9223372036854,0.02\n").size(), 1u);
}

TEST(PriceTraceTest, FromCsvSortsRows) {
  const PriceTrace parsed =
      PriceTrace::FromCsv("200,0.02\n0,0.02\n100,0.10\n");
  EXPECT_EQ(parsed.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.PriceAt(SimTime::FromSeconds(150)), 0.10);
}

TEST(PriceTraceCursorTest, MonotoneWalkMatchesPriceAtWithoutBackwardSeeks) {
  const PriceTrace trace = MakeStepTrace();
  PriceTrace::Cursor cursor(&trace);
  for (int s = 0; s <= 300; s += 10) {
    const SimTime t = SimTime::FromSeconds(s);
    EXPECT_DOUBLE_EQ(cursor.PriceAt(t), trace.PriceAt(t)) << "t=" << s;
  }
  EXPECT_EQ(cursor.backward_seeks(), 0);
}

TEST(PriceTraceCursorTest, BackwardSeekFallsBackToBinarySearch) {
  const PriceTrace trace = MakeStepTrace();
  PriceTrace::Cursor cursor(&trace);
  EXPECT_DOUBLE_EQ(cursor.PriceAt(SimTime::FromSeconds(250)), 0.02);
  // Going backwards must still return the correct in-effect price at every
  // point, served by the binary-search fallback.
  EXPECT_DOUBLE_EQ(cursor.PriceAt(SimTime::FromSeconds(150)), 0.10);
  EXPECT_DOUBLE_EQ(cursor.PriceAt(SimTime::FromSeconds(50)), 0.02);
  EXPECT_DOUBLE_EQ(cursor.PriceAt(SimTime::FromSeconds(100)), 0.10);  // forward again
  EXPECT_EQ(cursor.backward_seeks(), 2);
}

TEST(PriceTraceCursorTest, RepeatedQueryAtSameTimeIsNotABackwardSeek) {
  const PriceTrace trace = MakeStepTrace();
  PriceTrace::Cursor cursor(&trace);
  EXPECT_DOUBLE_EQ(cursor.PriceAt(SimTime::FromSeconds(100)), 0.10);
  EXPECT_DOUBLE_EQ(cursor.PriceAt(SimTime::FromSeconds(100)), 0.10);
  EXPECT_EQ(cursor.backward_seeks(), 0);
}

TEST(PriceTraceCursorTest, QueryBeforeFirstPointIsSafe) {
  PriceTrace trace;
  trace.Append(SimTime::FromSeconds(100), 0.05);
  PriceTrace::Cursor cursor(&trace);
  EXPECT_DOUBLE_EQ(cursor.PriceAt(SimTime::FromSeconds(10)), 0.05);
  EXPECT_EQ(cursor.backward_seeks(), 0);
}

}  // namespace
}  // namespace spotcheck
