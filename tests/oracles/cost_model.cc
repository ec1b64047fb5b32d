#include "tests/oracles/cost_model.h"

#include <algorithm>

#include "src/market/market_analytics.h"

namespace spotcheck {

double ExpectedHourlyCost(const CostModelInputs& inputs) {
  const double p = std::clamp(inputs.revocation_probability, 0.0, 1.0);
  return (1.0 - p) * inputs.mean_spot_price_below_bid +
         p * inputs.on_demand_price + inputs.backup_cost_per_vm;
}

double ExpectedUnavailability(const AvailabilityModelInputs& inputs) {
  if (inputs.price_change_period <= SimDuration::Zero()) {
    return 0.0;
  }
  const double p = std::clamp(inputs.revocation_probability, 0.0, 1.0);
  return std::clamp(
      inputs.downtime_per_migration.seconds() * p /
          inputs.price_change_period.seconds(),
      0.0, 1.0);
}

TraceDerivedInputs DeriveFromTrace(const PriceTrace& trace, double bid,
                                   SimTime from, SimTime to) {
  TraceDerivedInputs derived;
  if (trace.empty() || to <= from) {
    return derived;
  }
  const double below = trace.FractionAtOrBelow(bid, from, to);
  derived.revocation_probability = 1.0 - below;
  // E[price | price <= bid]: mean price minus the above-bid contribution.
  // Computed by integrating the trace piecewise.
  double below_weighted = 0.0;
  double below_seconds = 0.0;
  SimTime cursor = from;
  const std::vector<int64_t>& times = trace.times_us();
  size_t i = 0;
  while (i < times.size() && times[i] <= from.micros()) {
    ++i;
  }
  while (cursor < to) {
    const SimTime next = (i < times.size() && times[i] < to.micros())
                             ? SimTime::FromMicros(times[i])
                             : to;
    const double price = trace.PriceAt(cursor);
    if (price <= bid) {
      below_weighted += price * (next - cursor).seconds();
      below_seconds += (next - cursor).seconds();
    }
    cursor = next;
    ++i;
  }
  derived.mean_spot_price_below_bid =
      below_seconds > 0.0 ? below_weighted / below_seconds : 0.0;
  derived.revocations = CountBidCrossings(trace, bid, from, to);
  derived.mean_time_between_revocations =
      derived.revocations > 0 ? (to - from) / static_cast<double>(derived.revocations)
                              : SimDuration::Zero();
  return derived;
}

}  // namespace spotcheck
