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
  const SimTime billed_until = BilledUntil(it->second, now);
  closed_cost_ += StreamCost(it->second, billed_until);
  closed_hours_ += (billed_until - it->second.started).hours();
  open_.erase(it);
}

SimTime BillingMeter::BilledUntil(const Stream& stream, SimTime until) const {
  if (!hourly_quantum_ || until <= stream.started) {
    // Stopping at (or before) the launch instant bills zero.
    return until;
  }
  // Integer hour arithmetic on the microsecond clock: a stop exactly on an
  // hour boundary bills exactly that many hours, and any positive partial
  // hour rounds up to one whole quantum. The previous floating-point
  // ceil(hours - 1e-9) had a 3.6 us dead zone (1e-9 is in HOURS) in which a
  // short-lived stream billed zero instead of one hour.
  constexpr int64_t kHourUs = 3'600'000'000;
  const int64_t us = (until - stream.started).micros();
  const int64_t billed_hours = (us + kHourUs - 1) / kHourUs;
  return stream.started + SimDuration::Micros(billed_hours * kHourUs);
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

double BillingMeter::TotalInstanceHours(SimTime now) const {
  double total = closed_hours_;
  for (const auto& [id, stream] : open_) {
    total += (now - stream.started).hours();
  }
  return total;
}

}  // namespace spotcheck
