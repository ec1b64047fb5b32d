// Built-in strategy families behind the policy registry.
//
// Bidding (Section 4.3 plus the adaptive family):
//   on-demand            bid exactly the on-demand price
//   multiple:k           bid k x on-demand (k >= 1; k > 1 enables proactive)
//   adaptive:k0[:step[:target]]
//                        start at k0 x on-demand and adjust from observed
//                        bid-crossing rates: more than `target` crossings per
//                        7-day window raises k by `step` (fewer revocations,
//                        higher worst case), a crossing-free window lowers it
//                        back toward 1. After Voorsluys et al.'s
//                        history-driven bid placement.
//
// Pool selection (Table 2 plus index tracking):
//   1p-m 2p-ml 4p-ed     round-robin over 1/2/4 family-ladder pools
//   4p-cost              weighted inversely to historical per-slot cost
//   4p-st                weighted inversely to historical bid crossings
//   greedy               lowest current per-slot price wins
//   stable               fewest historical bid crossings wins
//   index-track[:alpha]  rebalances placements across the 4-pool ladder to
//                        track the portfolio's per-slot price index: each
//                        pool's target share is proportional to the inverse
//                        of its EWMA per-slot price forecast (alpha = EWMA
//                        smoothing), pools in a spike regime are excluded,
//                        and each placement goes to the pool with the
//                        largest target-minus-actual deficit. After Shastri
//                        & Irwin's "Cloud Index Tracking". Deterministic: no
//                        Rng draws, ties break in ladder order.

#ifndef SRC_POLICY_BUILTIN_STRATEGIES_H_
#define SRC_POLICY_BUILTIN_STRATEGIES_H_

#include <map>
#include <vector>

#include "src/market/price_forecaster.h"
#include "src/policy/registry.h"
#include "src/policy/strategy.h"

namespace spotcheck {

// on-demand / multiple:k -- the paper's two fixed bids.
class FixedBidStrategy : public BidStrategy {
 public:
  FixedBidStrategy(StrategySpec spec, bool multiple, double k)
      : spec_(std::move(spec)), multiple_(multiple), k_(k) {}

  double BidFor(InstanceType type) const override {
    const double od = OnDemandPrice(type);
    return multiple_ ? k_ * od : od;
  }
  bool SupportsProactiveMigration() const override {
    return multiple_ && k_ > 1.0;
  }
  bool ObservesPrices() const override { return false; }
  StrategySpec spec() const override { return spec_; }

 private:
  StrategySpec spec_;
  bool multiple_;
  double k_;
};

// adaptive:k0[:step[:target]] -- crossing-rate-driven bid multiple.
class AdaptiveBidStrategy : public BidStrategy {
 public:
  AdaptiveBidStrategy(StrategySpec spec, double k0, double step,
                      double target_per_window)
      : spec_(std::move(spec)),
        k_(k0),
        step_(step),
        target_per_window_(target_per_window) {}

  double BidFor(InstanceType type) const override {
    return k_ * OnDemandPrice(type);
  }
  bool SupportsProactiveMigration() const override { return k_ > 1.0; }
  void OnPriceObservation(const MarketKey& key, SimTime now,
                          double price) override;
  StrategySpec spec() const override { return spec_; }

  double current_multiple() const { return k_; }
  int64_t crossings_observed() const { return total_crossings_; }

  static constexpr double kMinMultiple = 1.0;
  static constexpr double kMaxMultiple = 8.0;
  static constexpr SimDuration kWindow = SimDuration::Days(7);

 private:
  StrategySpec spec_;
  double k_;
  double step_;
  double target_per_window_;
  bool window_init_ = false;
  SimTime window_start_;
  int64_t crossings_in_window_ = 0;
  int64_t total_crossings_ = 0;
  // Last observed above-bid flag per market: a false->true flip is one
  // upward crossing (one revocation for pools bidding our bid).
  std::map<MarketKey, bool> above_;
};

// 1p-m / 2p-ml / 4p-ed -- equal distribution via strict rotation.
class RoundRobinPool : public PoolSelectionStrategy {
 public:
  RoundRobinPool(StrategySpec spec, const PoolStrategyInit& init,
                 size_t ladder_pools)
      : PoolSelectionStrategy(
            init.nested_type,
            PoolCandidates(ladder_pools, init.nested_type, init.zones),
            init.rng),
        spec_(std::move(spec)) {}
  StrategySpec spec() const override { return spec_; }

 protected:
  MarketKey Choose(const MarketView&, const BidStrategy&) override {
    return RoundRobin();
  }

 private:
  StrategySpec spec_;
};

// 4p-cost -- weighted inversely to historical per-slot cost.
class CostWeightedPool : public PoolSelectionStrategy {
 public:
  CostWeightedPool(StrategySpec spec, const PoolStrategyInit& init)
      : PoolSelectionStrategy(init.nested_type,
                              PoolCandidates(4, init.nested_type, init.zones),
                              init.rng),
        spec_(std::move(spec)) {}
  StrategySpec spec() const override { return spec_; }

 protected:
  MarketKey Choose(const MarketView& view, const BidStrategy& bid) override;

 private:
  StrategySpec spec_;
};

// 4p-st -- weighted inversely to historical bid crossings.
class StabilityWeightedPool : public PoolSelectionStrategy {
 public:
  StabilityWeightedPool(StrategySpec spec, const PoolStrategyInit& init)
      : PoolSelectionStrategy(init.nested_type,
                              PoolCandidates(4, init.nested_type, init.zones),
                              init.rng),
        spec_(std::move(spec)) {}
  StrategySpec spec() const override { return spec_; }

 protected:
  MarketKey Choose(const MarketView& view, const BidStrategy& bid) override;

 private:
  StrategySpec spec_;
};

// greedy -- lowest current per-slot price wins.
class GreedyCheapestPool : public PoolSelectionStrategy {
 public:
  GreedyCheapestPool(StrategySpec spec, const PoolStrategyInit& init)
      : PoolSelectionStrategy(init.nested_type,
                              PoolCandidates(4, init.nested_type, init.zones),
                              init.rng),
        spec_(std::move(spec)) {}
  StrategySpec spec() const override { return spec_; }

 protected:
  MarketKey Choose(const MarketView& view, const BidStrategy& bid) override;

 private:
  StrategySpec spec_;
};

// stable -- fewest historical bid crossings wins outright.
class StabilityFirstPool : public PoolSelectionStrategy {
 public:
  StabilityFirstPool(StrategySpec spec, const PoolStrategyInit& init)
      : PoolSelectionStrategy(init.nested_type,
                              PoolCandidates(4, init.nested_type, init.zones),
                              init.rng),
        spec_(std::move(spec)) {}
  StrategySpec spec() const override { return spec_; }

 protected:
  MarketKey Choose(const MarketView& view, const BidStrategy& bid) override;

 private:
  StrategySpec spec_;
};

// index-track[:alpha] -- deficit-driven rebalancing toward inverse-forecast
// target shares over the 4-pool ladder.
class IndexTrackingPool : public PoolSelectionStrategy {
 public:
  IndexTrackingPool(StrategySpec spec, const PoolStrategyInit& init,
                    double alpha);
  StrategySpec spec() const override { return spec_; }

  // Exposed for tests: placements recorded per candidate, in candidate
  // order.
  const std::vector<int64_t>& placements() const { return placements_; }

 protected:
  MarketKey Choose(const MarketView& view, const BidStrategy& bid) override;

 private:
  StrategySpec spec_;
  PriceForecasterConfig forecaster_config_;
  std::vector<PriceForecaster> forecasters_;  // one per candidate
  std::vector<size_t> next_point_;            // trace feed cursor per candidate
  std::vector<int64_t> placements_;
  int64_t total_placements_ = 0;
};

// Registers every family above; called once by PolicyRegistry's constructor.
void RegisterBuiltinStrategies(PolicyRegistry& registry);

}  // namespace spotcheck

#endif  // SRC_POLICY_BUILTIN_STRATEGIES_H_
