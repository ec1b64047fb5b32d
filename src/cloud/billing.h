// Usage metering for native-cloud instances.
//
// Spot instances are billed at the time-varying market price, on-demand
// instances at their fixed catalog price. Unlike real EC2 (hourly billing
// quanta), metering here is continuous: the paper's evaluation reports
// average $/hr, for which continuous integration of the price trace is the
// faithful comparison.

#ifndef SRC_CLOUD_BILLING_H_
#define SRC_CLOUD_BILLING_H_

#include <unordered_map>

#include "src/common/ids.h"
#include "src/common/time.h"

namespace spotcheck {

class PriceTrace;

class BillingMeter {
 public:
  // EC2 (2014) billed whole instance-hours: a stream stopped mid-hour is
  // charged to the end of that hour. Off by default (continuous metering);
  // flip on to reproduce quantized billing.
  void set_hourly_quantum(bool enabled) { hourly_quantum_ = enabled; }

  // Registers a fixed-rate (on-demand) charge stream for `id` at $`rate`/hr.
  void StartFixed(InstanceId id, SimTime now, double rate_per_hour);

  // Registers a metered (spot) charge stream for `id`; cost accrues as the
  // integral of `trace` over running time. The trace must outlive the meter.
  void StartMetered(InstanceId id, SimTime now, const PriceTrace* trace);

  // Finalizes the stream for `id`, adding its cost to the closed total.
  void Stop(InstanceId id, SimTime now);

  // Cost accrued by `id` up to `now` (0 if unknown/closed).
  double AccruedCost(InstanceId id, SimTime now) const;

  // Total cost across all streams, open ones evaluated at `now`.
  double TotalCost(SimTime now) const;

  // Total instance-hours across all streams, open ones evaluated at `now`.
  double TotalInstanceHours(SimTime now) const;

 private:
  struct Stream {
    SimTime started;
    double fixed_rate = 0.0;            // $/hr; used when trace == nullptr
    const PriceTrace* trace = nullptr;  // metered when non-null
  };

  double StreamCost(const Stream& stream, SimTime until) const;
  // Rounds the stop time up to the next whole billed hour when quantized.
  SimTime BilledUntil(const Stream& stream, SimTime until) const;

  std::unordered_map<InstanceId, Stream> open_;
  double closed_cost_ = 0.0;
  double closed_hours_ = 0.0;
  bool hourly_quantum_ = false;
};

}  // namespace spotcheck

#endif  // SRC_CLOUD_BILLING_H_
