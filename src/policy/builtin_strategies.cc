#include "src/policy/builtin_strategies.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/market/market_analytics.h"

namespace spotcheck {

// --- AdaptiveBidStrategy -----------------------------------------------------

void AdaptiveBidStrategy::OnPriceObservation(const MarketKey& key, SimTime now,
                                             double price) {
  if (!window_init_) {
    window_start_ = now;
    window_init_ = true;
  }
  const bool now_above = price > BidFor(key.type);
  const auto [it, inserted] = above_.try_emplace(key, now_above);
  if (inserted) {
    if (now_above) {
      ++crossings_in_window_;
      ++total_crossings_;
    }
  } else {
    if (now_above && !it->second) {
      ++crossings_in_window_;
      ++total_crossings_;
    }
    it->second = now_above;
  }
  if (now - window_start_ >= kWindow) {
    if (static_cast<double>(crossings_in_window_) > target_per_window_) {
      k_ = std::min(k_ + step_, kMaxMultiple);
    } else if (crossings_in_window_ == 0) {
      k_ = std::max(k_ - step_, kMinMultiple);
    }
    // The bid moved: stale above-bid flags would mint phantom crossings, so
    // they are re-derived lazily from the next observation per market.
    for (auto& [market, above] : above_) {
      (void)market;
      above = false;
    }
    window_start_ = now;
    crossings_in_window_ = 0;
  }
}

// --- Table-2 pool strategies -------------------------------------------------

MarketKey CostWeightedPool::Choose(const MarketView& view, const BidStrategy&) {
  // Weight inversely to historical per-slot cost.
  std::vector<double> weights;
  for (const MarketKey& key : candidates_) {
    const SpotMarket* market = view.Find(key);
    const int slots = NestedSlotsPerHost(key.type, nested_type_);
    double weight = 0.0;
    if (market != nullptr && slots > 0 && view.now() > SimTime()) {
      const double mean = market->trace().MeanPrice(SimTime(), view.now()) /
                          static_cast<double>(slots);
      weight = mean > 0.0 ? 1.0 / mean : 0.0;
    }
    weights.push_back(weight);
  }
  return ChooseWeighted(weights);
}

MarketKey StabilityWeightedPool::Choose(const MarketView& view,
                                        const BidStrategy& bid) {
  // Weight inversely to the number of past revocations (bid crossings).
  std::vector<double> weights;
  for (const MarketKey& key : candidates_) {
    const SpotMarket* market = view.Find(key);
    double weight = 0.0;
    if (market != nullptr) {
      const int crossings = CountBidCrossings(
          market->trace(), bid.BidFor(key.type), SimTime(), view.now());
      weight = 1.0 / (1.0 + static_cast<double>(crossings));
    }
    weights.push_back(weight);
  }
  return ChooseWeighted(weights);
}

MarketKey GreedyCheapestPool::Choose(const MarketView& view,
                                     const BidStrategy&) {
  // Lowest current per-slot price wins (exploits the slicing arbitrage).
  MarketKey best = candidates_.front();
  double best_price = std::numeric_limits<double>::infinity();
  for (const MarketKey& key : candidates_) {
    const SpotMarket* market = view.Find(key);
    if (market == nullptr) {
      continue;
    }
    const double price = PerSlotPrice(*market, nested_type_, view.now());
    if (price < best_price) {
      best_price = price;
      best = key;
    }
  }
  return best;
}

MarketKey StabilityFirstPool::Choose(const MarketView& view,
                                     const BidStrategy& bid) {
  // Fewest past revocations wins outright.
  MarketKey best = candidates_.front();
  int best_crossings = std::numeric_limits<int>::max();
  for (const MarketKey& key : candidates_) {
    const SpotMarket* market = view.Find(key);
    if (market == nullptr) {
      continue;
    }
    const int crossings = CountBidCrossings(
        market->trace(), bid.BidFor(key.type), SimTime(), view.now());
    if (crossings < best_crossings) {
      best_crossings = crossings;
      best = key;
    }
  }
  return best;
}

// --- IndexTrackingPool -------------------------------------------------------

IndexTrackingPool::IndexTrackingPool(StrategySpec spec,
                                     const PoolStrategyInit& init, double alpha)
    : PoolSelectionStrategy(init.nested_type,
                            PoolCandidates(4, init.nested_type, init.zones),
                            init.rng),
      spec_(std::move(spec)) {
  forecaster_config_.mean_alpha = alpha;
  forecasters_.assign(candidates_.size(), PriceForecaster(forecaster_config_));
  next_point_.assign(candidates_.size(), 0);
  placements_.assign(candidates_.size(), 0);
}

MarketKey IndexTrackingPool::Choose(const MarketView& view,
                                    const BidStrategy&) {
  // Feed each candidate's forecaster the trace points since the last
  // decision (incremental: amortized O(new points) across the run).
  std::vector<double> weights(candidates_.size(), 0.0);
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const MarketKey& key = candidates_[i];
    const SpotMarket* market = view.Find(key);
    if (market == nullptr) {
      continue;
    }
    next_point_[i] =
        forecasters_[i].ObserveTrace(market->trace(), next_point_[i], view.now());
    const int slots = NestedSlotsPerHost(key.type, nested_type_);
    if (!forecasters_[i].primed() || slots <= 0) {
      continue;
    }
    if (forecasters_[i].regime() == PriceRegime::kSpike) {
      continue;  // mid-spike pools are excluded from the index
    }
    const double per_slot_forecast =
        forecasters_[i].forecast() / static_cast<double>(slots);
    if (per_slot_forecast > 0.0) {
      weights[i] = 1.0 / per_slot_forecast;
    }
  }
  double total_weight = 0.0;
  for (double w : weights) {
    total_weight += w;
  }
  if (total_weight <= 0.0) {
    // No usable forecast yet (or every pool mid-spike): fall back to the
    // equal-distribution rotation.
    const MarketKey choice = RoundRobin();
    for (size_t i = 0; i < candidates_.size(); ++i) {
      if (candidates_[i] == choice) {
        ++placements_[i];
        break;
      }
    }
    ++total_placements_;
    return choice;
  }
  // Place where the gap between target share (inverse-forecast weight) and
  // actual share is largest, counting the VM about to be placed.
  size_t best = 0;
  double best_deficit = -std::numeric_limits<double>::infinity();
  const double next_total = static_cast<double>(total_placements_ + 1);
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const double target = weights[i] / total_weight;
    const double actual = static_cast<double>(placements_[i]) / next_total;
    const double deficit = target - actual;
    if (deficit > best_deficit) {
      best_deficit = deficit;
      best = i;
    }
  }
  ++placements_[best];
  ++total_placements_;
  return candidates_[best];
}

// --- Registration ------------------------------------------------------------

namespace {

bool ExpectParams(const StrategySpec& spec, size_t min_params,
                  size_t max_params, std::string* error) {
  if (spec.params.size() < min_params || spec.params.size() > max_params) {
    if (error != nullptr) {
      *error = "strategy '" + spec.name + "' takes " +
               (min_params == max_params
                    ? std::to_string(min_params)
                    : std::to_string(min_params) + ".." +
                          std::to_string(max_params)) +
               " parameter(s), got " + std::to_string(spec.params.size());
    }
    return false;
  }
  return true;
}

}  // namespace

void RegisterBuiltinStrategies(PolicyRegistry& registry) {
  registry.RegisterBid(
      "on-demand",
      [](const StrategySpec& spec,
         std::string* error) -> std::unique_ptr<BidStrategy> {
        if (!ExpectParams(spec, 0, 0, error)) {
          return nullptr;
        }
        return std::make_unique<FixedBidStrategy>(spec, /*multiple=*/false, 1.0);
      });
  registry.RegisterBid(
      "multiple",
      [](const StrategySpec& spec,
         std::string* error) -> std::unique_ptr<BidStrategy> {
        if (!ExpectParams(spec, 1, 1, error)) {
          return nullptr;
        }
        const double k = spec.params[0];
        if (!(k >= 1.0)) {
          if (error != nullptr) {
            *error = "multiple: k must be >= 1 (got " + std::to_string(k) + ")";
          }
          return nullptr;
        }
        return std::make_unique<FixedBidStrategy>(spec, /*multiple=*/true, k);
      });
  registry.RegisterBid(
      "adaptive",
      [](const StrategySpec& spec,
         std::string* error) -> std::unique_ptr<BidStrategy> {
        if (!ExpectParams(spec, 1, 3, error)) {
          return nullptr;
        }
        const double k0 = spec.params[0];
        const double step = spec.params.size() > 1 ? spec.params[1] : 0.5;
        const double target = spec.params.size() > 2 ? spec.params[2] : 1.0;
        if (!(k0 >= AdaptiveBidStrategy::kMinMultiple &&
              k0 <= AdaptiveBidStrategy::kMaxMultiple)) {
          if (error != nullptr) {
            *error = "adaptive: k0 must be in [1, 8] (got " +
                     std::to_string(k0) + ")";
          }
          return nullptr;
        }
        if (!(step > 0.0) || !(target >= 0.0)) {
          if (error != nullptr) {
            *error = "adaptive: step must be > 0 and target >= 0";
          }
          return nullptr;
        }
        return std::make_unique<AdaptiveBidStrategy>(spec, k0, step, target);
      });

  const auto register_round_robin = [&registry](const std::string& name,
                                                size_t pools) {
    registry.RegisterPool(
        name, pools,
        [pools](const StrategySpec& spec, const PoolStrategyInit& init,
                std::string* error) -> std::unique_ptr<PoolSelectionStrategy> {
          if (!ExpectParams(spec, 0, 0, error)) {
            return nullptr;
          }
          return std::make_unique<RoundRobinPool>(spec, init, pools);
        });
  };
  register_round_robin("1p-m", 1);
  register_round_robin("2p-ml", 2);
  register_round_robin("4p-ed", 4);

  registry.RegisterPool(
      "4p-cost", 4,
      [](const StrategySpec& spec, const PoolStrategyInit& init,
         std::string* error) -> std::unique_ptr<PoolSelectionStrategy> {
        if (!ExpectParams(spec, 0, 0, error)) {
          return nullptr;
        }
        return std::make_unique<CostWeightedPool>(spec, init);
      });
  registry.RegisterPool(
      "4p-st", 4,
      [](const StrategySpec& spec, const PoolStrategyInit& init,
         std::string* error) -> std::unique_ptr<PoolSelectionStrategy> {
        if (!ExpectParams(spec, 0, 0, error)) {
          return nullptr;
        }
        return std::make_unique<StabilityWeightedPool>(spec, init);
      });
  registry.RegisterPool(
      "greedy", 4,
      [](const StrategySpec& spec, const PoolStrategyInit& init,
         std::string* error) -> std::unique_ptr<PoolSelectionStrategy> {
        if (!ExpectParams(spec, 0, 0, error)) {
          return nullptr;
        }
        return std::make_unique<GreedyCheapestPool>(spec, init);
      });
  registry.RegisterPool(
      "stable", 4,
      [](const StrategySpec& spec, const PoolStrategyInit& init,
         std::string* error) -> std::unique_ptr<PoolSelectionStrategy> {
        if (!ExpectParams(spec, 0, 0, error)) {
          return nullptr;
        }
        return std::make_unique<StabilityFirstPool>(spec, init);
      });
  registry.RegisterPool(
      "index-track", 4,
      [](const StrategySpec& spec, const PoolStrategyInit& init,
         std::string* error) -> std::unique_ptr<PoolSelectionStrategy> {
        if (!ExpectParams(spec, 0, 1, error)) {
          return nullptr;
        }
        const double alpha = spec.params.empty() ? 0.2 : spec.params[0];
        if (!(alpha > 0.0 && alpha <= 1.0)) {
          if (error != nullptr) {
            *error = "index-track: alpha must be in (0, 1] (got " +
                     std::to_string(alpha) + ")";
          }
          return nullptr;
        }
        return std::make_unique<IndexTrackingPool>(spec, init, alpha);
      });
}

}  // namespace spotcheck
