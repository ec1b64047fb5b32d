#include "src/cloud/billing.h"

#include "src/market/price_trace.h"

namespace spotcheck {

void BillingMeter::StartFixed(InstanceId id, SimTime now, double rate_per_hour) {
  open_[id] = Stream{now, rate_per_hour, nullptr};
}

void BillingMeter::StartMetered(InstanceId id, SimTime now, const PriceTrace* trace) {
  open_[id] = Stream{now, 0.0, trace};
}

void BillingMeter::Stop(InstanceId id, SimTime now) {
  const auto it = open_.find(id);
  if (it == open_.end()) {
    return;
  }
  closed_cost_ += StreamCost(it->second, now);
  open_.erase(it);
}

double BillingMeter::StreamCost(const Stream& stream, SimTime until) const {
  const double hours = (until - stream.started).hours();
  if (hours <= 0.0) {
    return 0.0;
  }
  if (stream.trace != nullptr) {
    return stream.trace->MeanPrice(stream.started, until) * hours;
  }
  return stream.fixed_rate * hours;
}

double BillingMeter::AccruedCost(InstanceId id, SimTime now) const {
  const auto it = open_.find(id);
  if (it == open_.end()) {
    return 0.0;
  }
  return StreamCost(it->second, now);
}

double BillingMeter::TotalCost(SimTime now) const {
  double total = closed_cost_;
  for (const auto& [id, stream] : open_) {
    total += StreamCost(stream, now);
  }
  return total;
}

}  // namespace spotcheck
