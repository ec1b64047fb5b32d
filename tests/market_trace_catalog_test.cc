#include "src/market/trace_catalog.h"

#include <gtest/gtest.h>

#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/simulator.h"
#include "tests/text_mutator.h"

namespace spotcheck {
namespace {

class TraceCatalogTest : public testing::Test {
 protected:
  TraceCatalogTest() {
    dir_ = testing::TempDir() + "/spotcheck_traces_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TraceCatalogTest() override { std::filesystem::remove_all(dir_); }

  PriceTrace MakeTrace() {
    PriceTrace trace;
    trace.Append(SimTime(), 0.009);
    trace.Append(SimTime::FromSeconds(3600), 0.25);
    trace.Append(SimTime::FromSeconds(7200), 0.009);
    return trace;
  }

  std::string dir_;
};

TEST(ParseMarketKeyTest, ValidNames) {
  const auto key = ParseMarketKey("m3.medium@zone-0");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->type, InstanceType::kM3Medium);
  EXPECT_EQ(key->zone.index, 0);
  const auto key17 = ParseMarketKey("r3.8xlarge@zone-17");
  ASSERT_TRUE(key17.has_value());
  EXPECT_EQ(key17->type, InstanceType::kR38xlarge);
  EXPECT_EQ(key17->zone.index, 17);
}

TEST(ParseMarketKeyTest, InvalidNames) {
  EXPECT_FALSE(ParseMarketKey("m3.medium").has_value());
  EXPECT_FALSE(ParseMarketKey("t2.nano@zone-0").has_value());
  EXPECT_FALSE(ParseMarketKey("m3.medium@az-0").has_value());
  EXPECT_FALSE(ParseMarketKey("m3.medium@zone--1").has_value());
  EXPECT_FALSE(ParseMarketKey("m3.medium@zone-x").has_value());
  EXPECT_FALSE(ParseMarketKey("").has_value());
  // Each market has one name: these would all have named zone 0 (or an
  // out-of-range zone) if the zone were not canonical digits parsed whole.
  for (const char* name :
       {"m3.medium@zone-00", "m3.medium@zone-0.bak", "m3.medium@zone-+0",
        "m3.medium@zone- 0", "m3.medium@zone--0", "m3.medium@zone-0 ",
        "m3.medium@zone-", "m3.medium@zone-07", "m3.medium@zone-1e1",
        "m3.medium@zone-99999999999999999999"}) {
    EXPECT_FALSE(ParseMarketKey(name).has_value()) << name;
  }
}

TEST_F(TraceCatalogTest, SaveThenLoadRoundTrip) {
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{0}};
  ASSERT_TRUE(SaveTrace(key, MakeTrace(), dir_));

  Simulator sim;
  MarketPlace markets(&sim);
  const TraceLoadReport report = LoadTraceDirectory(markets, dir_);
  ASSERT_EQ(report.loaded.size(), 1u);
  EXPECT_EQ(report.loaded[0], key);
  EXPECT_TRUE(report.skipped.empty());

  const SpotMarket* market = markets.Find(key);
  ASSERT_NE(market, nullptr);
  EXPECT_DOUBLE_EQ(market->PriceAt(SimTime::FromSeconds(5000)), 0.25);
  EXPECT_DOUBLE_EQ(market->PriceAt(SimTime::FromSeconds(8000)), 0.009);
}

TEST_F(TraceCatalogTest, SkipsGarbageFiles) {
  std::ofstream(dir_ + "/not-a-market.csv") << "0,0.01\n";
  std::ofstream(dir_ + "/m3.medium@zone-0.txt") << "ignored extension\n";
  std::ofstream(dir_ + "/m3.large@zone-1.csv") << "";  // empty -> skipped
  // A header row is not a price point: the file is skipped, not loaded.
  std::ofstream(dir_ + "/m3.medium@zone-0.csv")
      << "time_s,price\n0,0.02\n3600,0.05\n";
  Simulator sim;
  MarketPlace markets(&sim);
  const TraceLoadReport report = LoadTraceDirectory(markets, dir_);
  EXPECT_TRUE(report.loaded.empty());
  // The .txt file is ignored outright; the three bad .csv files are reported.
  EXPECT_EQ(report.skipped.size(), 3u);
}

// Hostile trace files: seeded mutants of a valid headerless trace are each
// either skipped or loaded as finite points at representable, non-negative
// times. None may throw.
TEST_F(TraceCatalogTest, MutatedCsvIsSkippedOrLoadedNeverThrows) {
  const std::string valid = "0,0.02\n3600,0.05\n7200,0.02\n";
  TextMutator mutator(20261017, {"nan", "inf", "-1", "1e300", "1e-320",
                                 "9223372036854.775807", "0x10", "time_s,price",
                                 ",", "\n", " ", "."});
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{0}};
  int loaded = 0;
  int skipped = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string text = mutator.Mutate(valid);
    std::ofstream(dir_ + "/m3.medium@zone-0.csv", std::ios::trunc) << text;
    Simulator sim;
    MarketPlace markets(&sim);
    TraceLoadReport report;
    try {
      report = LoadTraceDirectory(markets, dir_);
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " threw " << e.what() << ": '" << text << "'";
    }
    if (report.loaded.empty()) {
      ASSERT_EQ(report.skipped.size(), 1u) << "'" << text << "'";
      ++skipped;
      continue;
    }
    ++loaded;
    const PriceTrace& trace = markets.Find(key)->trace();
    ASSERT_FALSE(trace.empty()) << "'" << text << "'";
    for (size_t p = 0; p < trace.size(); ++p) {
      ASSERT_GE(trace.time(p).micros(), 0) << "'" << text << "'";
      ASSERT_TRUE(std::isfinite(trace.price(p))) << "'" << text << "'";
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(skipped, 0);
}

// Two files that once parsed to one market: the second must not replace
// the first, whose replay is already queued on the simulator. The loser is
// skipped by name, so which file loads does not depend on directory order,
// and the survivor replays every point.
TEST_F(TraceCatalogTest, SecondFileForOneMarketIsSkippedAndReplayRuns) {
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{0}};
  ASSERT_TRUE(SaveTrace(key, MakeTrace(), dir_));
  std::ofstream(dir_ + "/m3.medium@zone-00.csv") << "0,0.5\n1800,0.7\n";
  Simulator sim;
  MarketPlace markets(&sim);
  const TraceLoadReport report = LoadTraceDirectory(markets, dir_);
  EXPECT_EQ(report.loaded, std::vector<MarketKey>{key});
  EXPECT_EQ(report.skipped, std::vector<std::string>{"m3.medium@zone-00.csv"});
  EXPECT_EQ(markets.All().size(), 1u);

  // Run even if a market was replaced, so a sanitizer build sees the
  // replaced market's queued replay.
  SpotMarket* market = markets.Find(key);
  ASSERT_NE(market, nullptr);
  std::vector<double> heard;
  market->Subscribe(
      [&heard](const SpotMarket&, double price) { heard.push_back(price); });
  sim.RunUntil(SimTime::FromSeconds(10'000));
  EXPECT_EQ(heard, (std::vector<double>{0.009, 0.25, 0.009}));
  EXPECT_TRUE(sim.empty());
}

TEST_F(TraceCatalogTest, MissingDirectoryYieldsEmptyReport) {
  Simulator sim;
  MarketPlace markets(&sim);
  const TraceLoadReport report =
      LoadTraceDirectory(markets, dir_ + "/does-not-exist");
  EXPECT_TRUE(report.loaded.empty());
  EXPECT_TRUE(report.skipped.empty());
}

TEST_F(TraceCatalogTest, MultipleMarkets) {
  SaveTrace(MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}}, MakeTrace(),
            dir_);
  SaveTrace(MarketKey{InstanceType::kM3Large, AvailabilityZone{2}}, MakeTrace(),
            dir_);
  Simulator sim;
  MarketPlace markets(&sim);
  const TraceLoadReport report = LoadTraceDirectory(markets, dir_);
  EXPECT_EQ(report.loaded.size(), 2u);
  EXPECT_EQ(markets.All().size(), 2u);
}

// TraceCatalog (the process-wide generated-trace memo) tests share the
// global singleton, so each clears it first.

TEST(TraceCatalogCacheTest, SecondLookupReturnsSameTraceWithoutRegeneration) {
  TraceCatalog& catalog = TraceCatalog::Global();
  catalog.Clear();
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{0}};
  const SimDuration horizon = SimDuration::Days(30);

  TraceCatalog::Lookup lookup;
  lookup.hit = true;
  const std::shared_ptr<const PriceTrace> first =
      catalog.GetOrGenerate(key, horizon, 7, &lookup);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(lookup.hit);
  EXPECT_FALSE(first->empty());
  EXPECT_EQ(catalog.stats().misses, 1);
  EXPECT_EQ(catalog.stats().hits, 0);

  const std::shared_ptr<const PriceTrace> second =
      catalog.GetOrGenerate(key, horizon, 7, &lookup);
  EXPECT_TRUE(lookup.hit);
  EXPECT_EQ(second.get(), first.get());  // the very same trace, not a copy
  EXPECT_EQ(catalog.stats().misses, 1);  // zero regeneration
  EXPECT_EQ(catalog.stats().hits, 1);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(TraceCatalogCacheTest, DistinctKeysHorizonsAndSeedsAreDistinctEntries) {
  TraceCatalog& catalog = TraceCatalog::Global();
  catalog.Clear();
  const MarketKey key{InstanceType::kM3Large, AvailabilityZone{1}};
  const auto base = catalog.GetOrGenerate(key, SimDuration::Days(30), 7);
  const auto other_seed = catalog.GetOrGenerate(key, SimDuration::Days(30), 8);
  const auto other_horizon = catalog.GetOrGenerate(key, SimDuration::Days(31), 7);
  const auto other_zone = catalog.GetOrGenerate(
      MarketKey{InstanceType::kM3Large, AvailabilityZone{2}}, SimDuration::Days(30), 7);
  EXPECT_NE(base.get(), other_seed.get());
  EXPECT_NE(base.get(), other_horizon.get());
  EXPECT_NE(base.get(), other_zone.get());
  EXPECT_EQ(catalog.size(), 4u);
  EXPECT_EQ(catalog.stats().misses, 4);
}

TEST(TraceCatalogCacheTest, ClearResetsEntriesAndCounters) {
  TraceCatalog& catalog = TraceCatalog::Global();
  catalog.Clear();
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{3}};
  catalog.GetOrGenerate(key, SimDuration::Days(10), 1);
  catalog.GetOrGenerate(key, SimDuration::Days(10), 1);
  EXPECT_EQ(catalog.size(), 1u);
  catalog.Clear();
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.stats().hits, 0);
  EXPECT_EQ(catalog.stats().misses, 0);
}

TEST(TraceCatalogCacheTest, ConcurrentLookupsGenerateOnceAndShare) {
  TraceCatalog& catalog = TraceCatalog::Global();
  catalog.Clear();
  const MarketKey key{InstanceType::kM3Xlarge, AvailabilityZone{0}};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const PriceTrace>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      seen[static_cast<size_t>(i)] =
          catalog.GetOrGenerate(key, SimDuration::Days(30), 99);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)].get(), seen[0].get());
  }
  EXPECT_EQ(catalog.stats().misses, 1);  // generated exactly once
  EXPECT_EQ(catalog.stats().hits, kThreads - 1);
}

TEST(TraceCatalogCacheTest, MarketPlaceCountsHitsAndMisses) {
  TraceCatalog::Global().Clear();
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{5}};

  Simulator sim_a;
  MarketPlace place_a(&sim_a);
  place_a.GetOrCreate(key, SimDuration::Days(20), 3);
  // Repeat lookup within one MarketPlace reuses its own market -- no new
  // catalog traffic.
  place_a.GetOrCreate(key, SimDuration::Days(20), 3);
  EXPECT_EQ(place_a.trace_cache_misses(), 1);
  EXPECT_EQ(place_a.trace_cache_hits(), 0);

  Simulator sim_b;
  MarketPlace place_b(&sim_b);
  SpotMarket& market_b = place_b.GetOrCreate(key, SimDuration::Days(20), 3);
  EXPECT_EQ(place_b.trace_cache_hits(), 1);
  EXPECT_EQ(place_b.trace_cache_misses(), 0);
  // Both places replay the identical shared trace.
  EXPECT_EQ(&market_b.trace(), &place_a.GetOrCreate(key, SimDuration::Days(20), 3).trace());
}

}  // namespace
}  // namespace spotcheck
