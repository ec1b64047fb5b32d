#include "src/market/price_forecaster.h"

namespace spotcheck {

void PriceForecaster::Observe(SimTime t, double price) {
  (void)t;  // EWMAs are per-observation, like RevocationPredictor's.
  if (!primed_) {
    mean_ = price;
    primed_ = true;
  } else {
    mean_ += config_.mean_alpha * (price - mean_);
  }
  last_price_ = price;
}

size_t PriceForecaster::ObserveTrace(const PriceTrace& trace, size_t from_index,
                                     SimTime until) {
  size_t i = from_index;
  for (; i < trace.size(); ++i) {
    const PricePoint point = trace.point(i);
    if (point.time > until) {
      break;
    }
    Observe(point.time, point.price);
  }
  return i;
}

PriceRegime PriceForecaster::regime() const {
  if (!primed_ || mean_ <= 0.0) {
    return PriceRegime::kCalm;
  }
  const double ratio = last_price_ / mean_;
  if (ratio >= config_.spike_ratio) {
    return PriceRegime::kSpike;
  }
  if (ratio >= config_.elevated_ratio) {
    return PriceRegime::kElevated;
  }
  return PriceRegime::kCalm;
}

}  // namespace spotcheck
