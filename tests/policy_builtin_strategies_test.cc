// The paper's seven built-in pool strategies (Table 2 plus greedy and
// stable), created through the PolicyRegistry and driven with the on-demand
// bid: candidate pools, exact splits, weighted preferences, the greedy and
// stable picks, per-slot pricing, and the no-history fallback. The fixture
// keeps the paper's name for these policies, "mapping policies".

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/policy/policy_spec.h"
#include "src/policy/registry.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

constexpr uint64_t kSeed = 99;
const AvailabilityZone kZone{0};

class MappingPolicyTest : public testing::Test {
 protected:
  MappingPolicyTest() : markets_(&sim_) {}

  // Registers a flat-price market for `type`.
  void AddFlatMarket(InstanceType type, double price) {
    PriceTrace trace;
    trace.Append(SimTime(), price);
    markets_.AddWithTrace(MarketKey{type, kZone}, std::move(trace));
  }

  // Registers a market with `crossings` brief spikes above on-demand.
  void AddSpikyMarket(InstanceType type, double base, int crossings) {
    PriceTrace trace;
    trace.Append(SimTime(), base);
    const double od = OnDemandPrice(type);
    for (int i = 0; i < crossings; ++i) {
      trace.Append(SimTime() + SimDuration::Hours(10.0 * i + 1), 2.0 * od);
      trace.Append(SimTime() + SimDuration::Hours(10.0 * i + 2), base);
    }
    markets_.AddWithTrace(MarketKey{type, kZone}, std::move(trace));
  }

  // The registry-created pool strategy `name` for m3.medium VMs in one zone.
  static std::unique_ptr<PoolSelectionStrategy> MakePolicy(
      const std::string& name) {
    PoolStrategyInit init;
    init.nested_type = InstanceType::kM3Medium;
    init.zones = {kZone};
    init.rng = Rng(kSeed);
    return CreatePoolStrategyOrDie(StrategySpec{name, {}}, init);
  }

  std::map<InstanceType, int> Draw(PoolSelectionStrategy& policy, int n,
                                   SimTime now) {
    std::map<InstanceType, int> counts;
    for (int i = 0; i < n; ++i) {
      ++counts[policy.ChoosePool(MarketView(markets_, now), *bid_).type];
    }
    return counts;
  }

  Simulator sim_;
  MarketPlace markets_;
  const std::unique_ptr<BidStrategy> bid_ =
      CreateBidStrategyOrDie(StrategySpec{"on-demand", {}});
};

TEST_F(MappingPolicyTest, Names) {
  // The Table-2 names are the labels of on-demand-bid specs.
  const std::pair<const char*, const char*> kLabels[] = {
      {"map=1p-m", "1P-M"},       {"map=2p-ml", "2P-ML"},
      {"map=4p-ed", "4P-ED"},     {"map=4p-cost", "4P-COST"},
      {"map=4p-st", "4P-ST"},     {"map=greedy", "GREEDY"},
      {"map=stable", "STABLE"}};
  for (const auto& [spec, label] : kLabels) {
    EXPECT_EQ(ParsePolicySpecOrExit(spec).Label(), label);
  }
  EXPECT_EQ(PolicySpec{}.Label(), "1P-M");
  // A non-default bid, or a map parameter, keeps the whole spec.
  EXPECT_EQ(ParsePolicySpecOrExit("bid=multiple:2,map=4p-ed").Label(),
            "bid=multiple:2,map=4p-ed");
  EXPECT_EQ(ParsePolicySpecOrExit("map=index-track:0.5").Label(),
            "bid=on-demand,map=index-track:0.5");
}

TEST_F(MappingPolicyTest, CandidateCountsMatchTable2) {
  EXPECT_EQ(MakePolicy("1p-m")->candidates().size(), 1u);
  EXPECT_EQ(MakePolicy("2p-ml")->candidates().size(), 2u);
  EXPECT_EQ(MakePolicy("4p-ed")->candidates().size(), 4u);
  EXPECT_EQ(MakePolicy("4p-cost")->candidates().size(), 4u);
}

TEST_F(MappingPolicyTest, SinglePoolAlwaysMedium) {
  AddFlatMarket(InstanceType::kM3Medium, 0.01);
  const auto policy = MakePolicy("1p-m");
  const auto counts = Draw(*policy, 20, SimTime());
  EXPECT_EQ(counts.at(InstanceType::kM3Medium), 20);
}

TEST_F(MappingPolicyTest, EqualDistributionIsExact) {
  AddFlatMarket(InstanceType::kM3Medium, 0.01);
  AddFlatMarket(InstanceType::kM3Large, 0.02);
  const auto policy = MakePolicy("2p-ml");
  const auto counts = Draw(*policy, 40, SimTime());
  EXPECT_EQ(counts.at(InstanceType::kM3Medium), 20);
  EXPECT_EQ(counts.at(InstanceType::kM3Large), 20);
}

TEST_F(MappingPolicyTest, FourPoolEqualCoversAllFour) {
  for (InstanceType t : {InstanceType::kM3Medium, InstanceType::kM3Large,
                         InstanceType::kM3Xlarge, InstanceType::kM32xlarge}) {
    AddFlatMarket(t, 0.01);
  }
  const auto policy = MakePolicy("4p-ed");
  const auto counts = Draw(*policy, 40, SimTime());
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [type, count] : counts) {
    EXPECT_EQ(count, 10);
  }
}

TEST_F(MappingPolicyTest, CostWeightedPrefersCheapPerSlotPools) {
  // m3.large at 0.01 hosts two mediums -> 0.005/slot, far cheaper than the
  // 0.05 medium pool; the other two pools are expensive.
  AddFlatMarket(InstanceType::kM3Medium, 0.05);
  AddFlatMarket(InstanceType::kM3Large, 0.01);
  AddFlatMarket(InstanceType::kM3Xlarge, 0.25);
  AddFlatMarket(InstanceType::kM32xlarge, 0.50);
  const auto policy = MakePolicy("4p-cost");
  const SimTime later = SimTime() + SimDuration::Days(30);
  auto counts = Draw(*policy, 400, later);
  EXPECT_GT(counts[InstanceType::kM3Large], counts[InstanceType::kM3Medium]);
  EXPECT_GT(counts[InstanceType::kM3Large], counts[InstanceType::kM3Xlarge]);
  EXPECT_GT(counts[InstanceType::kM3Large], counts[InstanceType::kM32xlarge]);
}

TEST_F(MappingPolicyTest, StabilityWeightedAvoidsVolatilePools) {
  AddSpikyMarket(InstanceType::kM3Medium, 0.01, 0);   // rock solid
  AddSpikyMarket(InstanceType::kM3Large, 0.01, 20);   // volatile
  AddSpikyMarket(InstanceType::kM3Xlarge, 0.01, 20);
  AddSpikyMarket(InstanceType::kM32xlarge, 0.01, 20);
  const auto policy = MakePolicy("4p-st");
  const SimTime later = SimTime() + SimDuration::Days(30);
  auto counts = Draw(*policy, 400, later);
  EXPECT_GT(counts[InstanceType::kM3Medium], 200);  // weight 1 vs 1/21 each
}

TEST_F(MappingPolicyTest, GreedyPicksCheapestPerSlotNow) {
  AddFlatMarket(InstanceType::kM3Medium, 0.010);
  AddFlatMarket(InstanceType::kM3Large, 0.014);  // 0.007/slot: winner
  AddFlatMarket(InstanceType::kM3Xlarge, 0.20);
  AddFlatMarket(InstanceType::kM32xlarge, 0.40);
  const auto policy = MakePolicy("greedy");
  const auto counts = Draw(*policy, 10, SimTime());
  EXPECT_EQ(counts.at(InstanceType::kM3Large), 10);
}

TEST_F(MappingPolicyTest, StabilityFirstPicksFewestCrossings) {
  AddSpikyMarket(InstanceType::kM3Medium, 0.01, 5);
  AddSpikyMarket(InstanceType::kM3Large, 0.01, 1);  // most stable
  AddSpikyMarket(InstanceType::kM3Xlarge, 0.01, 8);
  AddSpikyMarket(InstanceType::kM32xlarge, 0.01, 9);
  const auto policy = MakePolicy("stable");
  const SimTime later = SimTime() + SimDuration::Days(30);
  const auto counts = Draw(*policy, 10, later);
  EXPECT_EQ(counts.at(InstanceType::kM3Large), 10);
}

TEST_F(MappingPolicyTest, PerSlotPriceDividesBySlots) {
  AddFlatMarket(InstanceType::kM3Large, 0.02);
  const SpotMarket* market = markets_.Find(MarketKey{InstanceType::kM3Large, kZone});
  ASSERT_NE(market, nullptr);
  EXPECT_DOUBLE_EQ(PoolSelectionStrategy::PerSlotPrice(
                       *market, InstanceType::kM3Medium, SimTime()),
                   0.01);
  // A nested VM bigger than the host has no valid slot.
  EXPECT_TRUE(std::isinf(PoolSelectionStrategy::PerSlotPrice(
      *market, InstanceType::kM32xlarge, SimTime())));
}

TEST_F(MappingPolicyTest, WeightedPoliciesFallBackWithoutHistory) {
  // At t=0 there is no history: weighted policies degrade to round-robin
  // rather than crashing or always picking one pool.
  for (InstanceType t : {InstanceType::kM3Medium, InstanceType::kM3Large,
                         InstanceType::kM3Xlarge, InstanceType::kM32xlarge}) {
    AddFlatMarket(t, 0.01);
  }
  const auto policy = MakePolicy("4p-cost");
  const auto counts = Draw(*policy, 40, SimTime());
  EXPECT_EQ(counts.size(), 4u);
}

// The MarketWatcher lets a market skip the price changes it cannot act on
// unless the bid strategy ObservesPrices(). So every registered bid
// strategy whose state moves under OnPriceObservation must report it, or
// its cells would silently stop learning from the skipped points.
TEST(BidStrategyRegistryTest, StrategiesThatLearnFromPricesObservePrices) {
  const PolicyRegistry& registry = PolicyRegistry::Instance();
  const std::vector<std::vector<double>> param_sets = {
      {}, {1.5}, {2.0}, {2.0, 0.5, 1.0}, {4.0, 1.0, 0.0}};
  const auto fingerprint = [](const BidStrategy& bid) {
    std::string text = bid.spec().ToString();
    text += bid.SupportsProactiveMigration() ? ";proactive" : ";fixed";
    for (const InstanceTypeInfo& info : InstanceCatalog()) {
      text += ";" + std::to_string(bid.BidFor(info.type)) + "/" +
              std::to_string(bid.ProactiveThreshold(info.type));
    }
    return text;
  };
  int learners = 0;
  for (const std::string& name : registry.BidNames()) {
    int created = 0;
    for (const std::vector<double>& params : param_sets) {
      const std::unique_ptr<BidStrategy> bid =
          registry.CreateBid(StrategySpec{name, params}, nullptr);
      if (bid == nullptr) {
        continue;
      }
      ++created;
      const std::string before = fingerprint(*bid);
      // Two weeks of prices crossing every bid many times, then two calm
      // weeks, in two markets.
      for (int hour = 0; hour < 24 * 28; ++hour) {
        for (const InstanceType type :
             {InstanceType::kM3Medium, InstanceType::kM3Xlarge}) {
          const double od = OnDemandPrice(type);
          const bool spike = hour < 24 * 14 && hour % 5 == 0;
          bid->OnPriceObservation(MarketKey{type, kZone},
                                  SimTime() + SimDuration::Hours(hour),
                                  spike ? 20.0 * od : 0.2 * od);
        }
      }
      if (fingerprint(*bid) != before) {
        ++learners;
        EXPECT_TRUE(bid->ObservesPrices())
            << bid->ToString() << " changes under OnPriceObservation";
      }
    }
    EXPECT_GT(created, 0) << "no parameter set builds bid strategy " << name;
  }
  // The guard has teeth: at least one built-in strategy learns.
  EXPECT_GT(learners, 0);
}

// ObservesPrices() defaults to true, so a fixed bid must opt out, or its
// cells would fire every point of every trace.
TEST(BidStrategyRegistryTest, FixedBidsLetMarketsSkipPrices) {
  const PolicyRegistry& registry = PolicyRegistry::Instance();
  for (const StrategySpec& spec :
       {StrategySpec{"on-demand", {}}, StrategySpec{"multiple", {1.5}}}) {
    const std::unique_ptr<BidStrategy> bid = registry.CreateBid(spec, nullptr);
    ASSERT_NE(bid, nullptr) << spec.ToString();
    EXPECT_FALSE(bid->ObservesPrices()) << spec.ToString();
  }
}

}  // namespace
}  // namespace spotcheck
