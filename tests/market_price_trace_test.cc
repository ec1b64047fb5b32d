#include "src/market/price_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "src/market/instance_types.h"
#include "src/market/spot_price_process.h"

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

// MeanPrice as a walk over every segment, one term per segment in time
// order: the loop the per-segment cost column replaced, kept as the
// reference the column's results must match bit for bit.
double SegmentWalkMeanPrice(const PriceTrace& trace, SimTime from, SimTime to) {
  if (trace.empty() || to <= from) {
    return 0.0;
  }
  const std::vector<int64_t>& times = trace.times_us();
  const std::vector<double>& prices = trace.prices();
  const size_t n = times.size();
  const int64_t to_us = to.micros();
  size_t i = static_cast<size_t>(
      std::upper_bound(times.begin(), times.end(), from.micros()) -
      times.begin());
  size_t j = i == 0 ? 0 : i - 1;
  int64_t cursor_us = from.micros();
  double weighted = 0.0;
  while (cursor_us < to_us) {
    const int64_t next_us = (i < n && times[i] < to_us) ? times[i] : to_us;
    weighted +=
        prices[j] * SimDuration::Micros(next_us - cursor_us).seconds();
    cursor_us = next_us;
    if (i < n && times[i] <= cursor_us) {
      j = i;
      ++i;
    }
  }
  return weighted / (to - from).seconds();
}

// Compares MeanPrice with the segment walk bitwise over many windows and
// reports the first few mismatches.
class MeanPriceChecker {
 public:
  void Check(const PriceTrace& trace, SimTime from, SimTime to,
             const std::string& what) {
    ++checks_;
    const double got = trace.MeanPrice(from, to);
    const double want = SegmentWalkMeanPrice(trace, from, to);
    if (std::bit_cast<uint64_t>(got) != std::bit_cast<uint64_t>(want) &&
        ++mismatches_ <= 5) {
      ADD_FAILURE() << what << ": MeanPrice[" << from.micros() << ", "
                    << to.micros() << ") us = " << got
                    << ", segment walk = " << want;
    }
  }
  int checks() const { return checks_; }
  int mismatches() const { return mismatches_; }

 private:
  int checks_ = 0;
  int mismatches_ = 0;
};

// The same points as a trace built three ways: by Append, by the points
// constructor and by FromCsv (which sorts its rows, so an equal-time run
// may come back in another order; each trace is checked against its own
// walk).
std::vector<std::pair<std::string, PriceTrace>> BuiltThreeWays(
    const std::vector<PricePoint>& points) {
  std::vector<std::pair<std::string, PriceTrace>> traces;
  PriceTrace appended;
  std::string csv;
  for (const PricePoint& p : points) {
    appended.Append(p.time, p.price);
    char row[96];
    std::snprintf(row, sizeof(row), "%.17g,%.17g\n", p.time.seconds(),
                  p.price);
    csv += row;
  }
  traces.emplace_back("Append", std::move(appended));
  traces.emplace_back("points constructor", PriceTrace(points));
  traces.emplace_back("FromCsv", PriceTrace::FromCsv(csv));
  return traces;
}

TEST(PriceTraceTest, MeanPriceMatchesSegmentWalk) {
  MeanPriceChecker checker;
  const auto at = [](double seconds) { return SimTime::FromSeconds(seconds); };

  // Hand-built traces: equal-time runs (at the start, in the middle, at the
  // end), a -0.0 price on a segment of positive length, negative prices
  // whose zero-length segments add -0.0, and a one-point trace.
  const std::vector<std::vector<PricePoint>> hand_built = {
      {{at(10), 0.5}, {at(10), 0.25}, {at(20), 1.0}, {at(30), -0.0},
       {at(40), 0.75}, {at(40), 0.125}, {at(40), 3.0}, {at(55), 2.0},
       {at(60), 0.3}, {at(60), 0.3}},
      {{at(5), -1.0}, {at(5), -0.5}, {at(15), -0.0}, {at(25), -2.0}},
      {{at(100), 0.07}},
  };
  for (const std::vector<PricePoint>& points : hand_built) {
    // Every ordered pair of these instants is a window, to <= from
    // included: before the first point, one microsecond either side of and
    // on every point time, and past the end.
    std::vector<SimTime> instants = {
        SimTime(), points.front().time - SimDuration::Seconds(1),
        points.back().time + SimDuration::Seconds(1),
        points.back().time + SimDuration::Seconds(100)};
    for (const PricePoint& p : points) {
      for (const int64_t d : {-1, 0, 1}) {
        instants.push_back(p.time + SimDuration::Micros(d));
      }
    }
    for (const auto& [how, trace] : BuiltThreeWays(points)) {
      ASSERT_EQ(trace.size(), points.size()) << how;
      for (const SimTime from : instants) {
        for (const SimTime to : instants) {
          checker.Check(trace, from, to, "hand-built, " + how);
        }
      }
    }
  }
  EXPECT_EQ(PriceTrace().MeanPrice(at(0), at(10)), 0.0);

  // A generated 180-day trace: random windows of every scale, and windows
  // that start or end on (or one microsecond off) a point time.
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{0}};
  const PriceTrace generated =
      GenerateMarketTrace(key, SimDuration::Days(180), /*master_seed=*/1);
  ASSERT_GT(generated.size(), 1000u);
  std::mt19937_64 rng(20261018);
  const int64_t day_us = SimDuration::Days(1).micros();
  const auto uniform = [&rng](int64_t lo, int64_t hi) {
    return lo +
           static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  for (int k = 0; k < 3000; ++k) {
    const int64_t from_us = uniform(-day_us, 181 * day_us);
    const int64_t scale_us = k % 3 == 0   ? SimDuration::Hours(2).micros()
                             : k % 3 == 1 ? 10 * day_us
                                          : 200 * day_us;
    const int64_t to_us = from_us + uniform(-scale_us / 10, scale_us);
    checker.Check(generated, SimTime::FromMicros(from_us),
                  SimTime::FromMicros(to_us), "generated, random window");
  }
  for (int k = 0; k < 2000; ++k) {
    const size_t a = static_cast<size_t>(rng() % generated.size());
    const size_t b = std::min(generated.size() - 1,
                              a + static_cast<size_t>(rng() % 2000));
    const SimTime from =
        generated.time(a) + SimDuration::Micros(uniform(-1, 1));
    const SimTime to =
        k % 2 == 0 ? generated.time(b) + SimDuration::Micros(uniform(-1, 1))
                   : from + SimDuration::Micros(uniform(1, day_us));
    checker.Check(generated, from, to, "generated, on a point time");
  }
  checker.Check(generated, generated.time(0),
                generated.time(generated.size() - 1), "generated, whole trace");
  checker.Check(generated, SimTime(), SimTime() + SimDuration::Days(400),
                "generated, past the end");
  EXPECT_GT(checker.checks(), 5000);
  EXPECT_EQ(checker.mismatches(), 0);
}

// MeanPrices over batches of every size around its eight lanes and its
// billing batch of 256: each answer must be the segment walk's, bitwise.
// The windows mix traces, and cover every case the walk distinguishes: no
// whole segment, before the first point, past the end, on point times,
// to <= from, equal-time runs, -0.0 and negative prices, and an infinite
// price, so a window ending on that point's time fails if it adds the
// point's zero-length term.
TEST(PriceTraceTest, MeanPricesMatchesSegmentWalk) {
  const auto at = [](double seconds) { return SimTime::FromSeconds(seconds); };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<PriceTrace> traces;
  traces.emplace_back(std::vector<PricePoint>{
      {at(10), 0.5}, {at(10), 0.25}, {at(20), 1.0}, {at(30), -0.0},
      {at(40), 0.75}, {at(40), 0.125}, {at(40), 3.0}, {at(55), 2.0},
      {at(60), 0.3}, {at(60), 0.3}});
  traces.emplace_back(std::vector<PricePoint>{
      {at(5), -1.0}, {at(5), -0.5}, {at(15), -0.0}, {at(25), -2.0}});
  // A run of -0.0 segments: a window inside it adds only -0.0 terms, so
  // its sum is +0.0 only because it starts from 0.0.
  traces.emplace_back(std::vector<PricePoint>{
      {at(10), -0.0}, {at(11), -0.0}, {at(12), -0.0}, {at(13), -0.0},
      {at(14), 0.5}});
  traces.emplace_back(std::vector<PricePoint>{
      {at(1), 0.25}, {at(2), 0.5}, {at(3), 0.75}, {at(4), kInf},
      {at(6), 0.125}, {at(8), 1.5}});
  traces.emplace_back(std::vector<PricePoint>{{at(100), 0.07}});
  traces.emplace_back();
  const size_t hand_built = traces.size();
  for (const InstanceType type :
       {InstanceType::kM3Medium, InstanceType::kM3Large}) {
    traces.push_back(GenerateMarketTrace(
        MarketKey{type, AvailabilityZone{0}}, SimDuration::Days(30),
        /*master_seed=*/1));
    ASSERT_GT(traces.back().size(), 100u);
  }

  // Windows over a grid of instants on the hand-built traces: before the
  // first point, one microsecond either side of and on every point time,
  // past the end, in every order (to <= from included).
  std::vector<PriceTrace::MeanPriceQuery> pool;
  for (size_t t = 0; t < hand_built; ++t) {
    const PriceTrace& trace = traces[t];
    std::vector<SimTime> instants = {SimTime(), at(1000)};
    for (size_t k = 0; k < trace.size(); ++k) {
      for (const int64_t d : {-1, 0, 1}) {
        instants.push_back(trace.time(k) + SimDuration::Micros(d));
      }
    }
    for (const SimTime from : instants) {
      for (const SimTime to : instants) {
        pool.push_back({&trace, from, to});
      }
    }
  }
  // Random windows on the generated traces, on and off point times.
  std::mt19937_64 rng(20261020);
  const int64_t day_us = SimDuration::Days(1).micros();
  const auto uniform = [&rng](int64_t lo, int64_t hi) {
    return lo +
           static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  for (int k = 0; k < 5000; ++k) {
    const PriceTrace& trace = traces[hand_built + static_cast<size_t>(k % 2)];
    SimTime from;
    SimTime to;
    if (k % 3 == 0) {
      const size_t a = static_cast<size_t>(rng() % trace.size());
      const size_t b =
          std::min(trace.size() - 1, a + static_cast<size_t>(rng() % 500));
      from = trace.time(a) + SimDuration::Micros(uniform(-1, 1));
      to = trace.time(b) + SimDuration::Micros(uniform(-1, 1));
    } else {
      from = SimTime::FromMicros(uniform(-day_us, 31 * day_us));
      to = from + SimDuration::Micros(uniform(-day_us, k % 3 == 1
                                                           ? day_us / 4
                                                           : 40 * day_us));
    }
    pool.push_back({&trace, from, to});
  }
  ASSERT_GT(pool.size(), 6000u);

  // Batches of each size, drawn from the shuffled pool, then the pool as
  // one batch.
  std::shuffle(pool.begin(), pool.end(), rng);
  int mismatches = 0;
  int checks = 0;
  const auto check = [&](std::span<const PriceTrace::MeanPriceQuery> batch) {
    std::vector<double> out(batch.size(), -1.0);
    PriceTrace::MeanPrices(batch, out);
    for (size_t k = 0; k < batch.size(); ++k) {
      ++checks;
      const double want =
          SegmentWalkMeanPrice(*batch[k].trace, batch[k].from, batch[k].to);
      if (std::bit_cast<uint64_t>(out[k]) != std::bit_cast<uint64_t>(want) &&
          ++mismatches <= 5) {
        ADD_FAILURE() << "batch of " << batch.size() << ", window " << k
                      << " [" << batch[k].from.micros() << ", "
                      << batch[k].to.micros() << ") us = " << out[k]
                      << ", segment walk = " << want;
      }
    }
  };
  size_t offset = 0;
  for (const size_t size : {0, 1, 7, 8, 9, 255, 256, 257}) {
    for (int rep = 0; rep < 3; ++rep) {
      ASSERT_LE(offset + size, pool.size());
      check(std::span(pool).subspan(offset, size));
      offset += size;
    }
  }
  check(pool);
  EXPECT_GT(checks, 9000);
  EXPECT_EQ(mismatches, 0);
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

// FirstOutside's skips must answer exactly what a linear scan does: random
// bands (empty, everything, windows), starts on, just before and just after
// 64-point block boundaries, and traces whose last block is partial. Sizes
// around 512 and 4,096 points put a summary level's first node, or its
// incomplete tail, at the end. Sparse-spike traces leave whole 512- and
// 4,096-point groups quiet, with spikes in the last block of some groups,
// so the seek climbs, and a node summarized before its last block
// completed would skip a spike.
TEST(PriceTraceFirstOutsideTest, MatchesLinearScan) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The linear scan's answer from every start at once: a backward sweep.
  const auto linear = [](const PriceTrace& trace, double above,
                         double at_or_below) {
    std::vector<size_t> first(trace.size() + 1, trace.size());
    for (size_t i = trace.size(); i-- > 0;) {
      first[i] = above < trace.price(i) && trace.price(i) <= at_or_below
                     ? first[i + 1]
                     : i;
    }
    return first;
  };
  std::mt19937_64 rng(20261018);
  int checks = 0;
  int block_skips_possible = 0;
  int group_skips = 0;  // answers at least 4,096 points past a start
  const auto check_trace = [&](const PriceTrace& trace, size_t size,
                               const std::vector<std::pair<double, double>>&
                                   bands) {
    std::vector<size_t> starts = {0, size, size + 3};
    for (size_t b = 0; b <= size; b += 64) {
      for (const size_t d : {b, b + 1, b + 63}) {
        starts.push_back(d);
      }
      if (b > 0) {
        starts.push_back(b - 1);
      }
    }
    for (int k = 0; k < 8; ++k) {
      starts.push_back(size == 0 ? 0 : rng() % size);
    }
    for (const auto& [above, at_or_below] : bands) {
      if (above == -kInf && at_or_below == 0.99) {
        ++block_skips_possible;
      }
      const std::vector<size_t> first = linear(trace, above, at_or_below);
      for (const size_t from : starts) {
        const size_t want = above < at_or_below ? first[std::min(from, size)]
                                                : std::min(from, size);
        const size_t got = trace.FirstOutside(from, above, at_or_below);
        ASSERT_EQ(got, want) << "size " << size << " from " << from
                             << " band (" << above << ", " << at_or_below
                             << "]";
        if (got >= from + 4096) {
          ++group_skips;
        }
        ++checks;
      }
    }
  };
  for (const size_t size : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                            size_t{65}, size_t{200}, size_t{1000},
                            size_t{511}, size_t{512}, size_t{513},
                            size_t{4095}, size_t{4097}, size_t{40000}}) {
    for (int trial = 0; trial < 12; ++trial) {
      // Mostly calm prices with rare spikes, so whole blocks can be quiet.
      PriceTrace trace;
      for (size_t i = 0; i < size; ++i) {
        const double price = rng() % 50 == 0
                                 ? 1.0 + static_cast<double>(rng() % 100) / 10.0
                                 : static_cast<double>(rng() % 100) / 100.0;
        trace.Append(SimTime::FromSeconds(static_cast<double>(i)), price);
      }
      std::vector<std::pair<double, double>> bands = {
          {kInf, -kInf}, {-kInf, kInf}, {0.5, 0.5}, {-kInf, 0.99},
          {0.2, kInf}};
      for (int k = 0; k < 6; ++k) {
        const double above = static_cast<double>(rng() % 120) / 100.0 - 0.1;
        bands.emplace_back(above,
                           above + static_cast<double>(rng() % 1200) / 100.0);
      }
      check_trace(trace, size, bands);
    }
  }
  // Sparse spikes: about one per 3,000 points, plus one in the last block
  // of a random 512-point group and one late in a random 4,096-point
  // group, at a point other than the block's first.
  for (const size_t size : {size_t{511}, size_t{512}, size_t{513},
                            size_t{4095}, size_t{4096}, size_t{4097},
                            size_t{40000}}) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<double> prices(size);
      for (double& price : prices) {
        price = rng() % 3000 == 0
                    ? 1.0 + static_cast<double>(rng() % 100) / 10.0
                    : static_cast<double>(rng() % 100) / 100.0;
      }
      if (size >= 512) {
        const size_t group = rng() % (size / 512);
        prices[group * 512 + 449 + rng() % 63] = 5.5;
      }
      if (size >= 4096) {
        const size_t group = rng() % (size / 4096);
        prices[group * 4096 + 4033 + rng() % 63] = 7.5;
      }
      PriceTrace trace;
      for (size_t i = 0; i < size; ++i) {
        trace.Append(SimTime::FromSeconds(static_cast<double>(i)), prices[i]);
      }
      check_trace(trace, size,
                  {{-kInf, 0.99}, {-0.5, 0.99}, {-0.01, 6.0}, {-1.0, 10.0},
                   {-kInf, kInf}, {0.5, 0.5}});
    }
  }
  EXPECT_GT(checks, 5000);
  EXPECT_GT(block_skips_possible, 0);
  EXPECT_GT(group_skips, 0);
}

TEST(PriceTraceFirstOutsideTest, EmptyBandAnswersFrom) {
  const PriceTrace trace = MakeStepTrace();
  EXPECT_EQ(trace.FirstOutside(1, 0.5, 0.5), 1u);
  EXPECT_EQ(trace.FirstOutside(1, 0.9, 0.1), 1u);
  EXPECT_EQ(trace.FirstOutside(7, 0.9, 0.1), trace.size());
  // (0.01, 0.05] holds the two 0.02 points, not the 0.10 one.
  EXPECT_EQ(trace.FirstOutside(0, 0.01, 0.05), 1u);
  EXPECT_EQ(trace.FirstOutside(2, 0.01, 0.05), trace.size());
}

}  // namespace
}  // namespace spotcheck
