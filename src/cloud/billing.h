// Usage metering for native-cloud instances.
//
// Spot instances are billed at the time-varying market price, on-demand
// instances at their fixed catalog price. Unlike real EC2 (hourly billing
// quanta), metering here is continuous: the paper's evaluation reports
// average $/hr, for which continuous integration of the price trace is the
// faithful comparison.
//
// A stopped stream's cost is not integrated on the spot: Stop queues it (a
// fixed cost, or a metered window), and a full queue is integrated as one
// PriceTrace::MeanPrices batch and added to the closed total in Stop order.
// TotalCost adds the queued tail the same way, so every total is bitwise
// what adding each cost at its Stop gives.

#ifndef SRC_CLOUD_BILLING_H_
#define SRC_CLOUD_BILLING_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/market/price_trace.h"

namespace spotcheck {

class BillingMeter {
 public:
  // Registers a fixed-rate (on-demand) charge stream for `id` at $`rate`/hr.
  void StartFixed(InstanceId id, SimTime now, double rate_per_hour);

  // Registers a metered (spot) charge stream for `id`; cost accrues as the
  // integral of `trace` over running time. The trace must outlive the meter.
  void StartMetered(InstanceId id, SimTime now, const PriceTrace* trace);

  // Finalizes the stream for `id`, queueing its cost for the closed total.
  void Stop(InstanceId id, SimTime now);

  // Cost accrued by `id` up to `now` (0 if unknown/closed).
  double AccruedCost(InstanceId id, SimTime now) const;

  // Total cost across all streams, open ones evaluated at `now`.
  double TotalCost(SimTime now) const;

 private:
  struct Stream {
    SimTime started;
    double fixed_rate = 0.0;            // $/hr; used when trace == nullptr
    const PriceTrace* trace = nullptr;  // metered when non-null
  };

  // A stopped stream's cost: `amount` dollars, or for a metered stream
  // `amount` hours times the mean price over its queued window.
  struct Charge {
    double amount;
    bool metered;
  };
  // Stopped streams integrated per batch.
  static constexpr size_t kQueueCapacity = 256;

  double StreamCost(const Stream& stream, SimTime until) const;
  // `total` plus each queued charge, in Stop order.
  double AddQueued(double total) const;

  std::unordered_map<InstanceId, Stream> open_;
  double closed_cost_ = 0.0;  // every charge before the queued ones
  std::vector<Charge> queued_;
  std::vector<PriceTrace::MeanPriceQuery> queued_windows_;  // metered only
};

}  // namespace spotcheck

#endif  // SRC_CLOUD_BILLING_H_
