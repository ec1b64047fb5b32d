#include "src/cloud/billing.h"

#include <array>

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
  const Stream& stream = it->second;
  const double hours = (now - stream.started).hours();
  if (hours > 0.0 && stream.trace != nullptr) {
    queued_.push_back({hours, true});
    queued_windows_.push_back({stream.trace, stream.started, now});
  } else {
    queued_.push_back({StreamCost(stream, now), false});
  }
  open_.erase(it);
  if (queued_.size() == kQueueCapacity) {
    closed_cost_ = AddQueued(closed_cost_);
    queued_.clear();
    queued_windows_.clear();
  }
}

double BillingMeter::AddQueued(double total) const {
  std::array<double, kQueueCapacity> means{};
  PriceTrace::MeanPrices(queued_windows_, means);
  const double* mean = means.data();
  for (const Charge& charge : queued_) {
    total += charge.metered ? *mean++ * charge.amount : charge.amount;
  }
  return total;
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
  double total = AddQueued(closed_cost_);
  for (const auto& [id, stream] : open_) {
    total += StreamCost(stream, now);
  }
  return total;
}

}  // namespace spotcheck
