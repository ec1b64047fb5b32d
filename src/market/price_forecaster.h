// EWMA price forecasting with regime detection.
//
// The index-tracking allocator (ROADMAP item 3, after Shastri & Irwin's
// "Cloud Index Tracking") needs a per-market estimate of the near-future
// price, not just the last observation: allocation weights computed from raw
// change points whipsaw on every spike. PriceForecaster keeps an EWMA of the
// price level per market and classifies the instantaneous price against it
// into three regimes:
//
//   kCalm      price near or below the smoothed level: trust the forecast
//   kElevated  price noticeably above it: a spike may be starting
//   kSpike     price a multiple of the level: revocation territory
//
// This reuses the feature idiom of RevocationPredictor (EWMA level ratio +
// short-horizon signal) but forecasts the $/hr level itself rather than a
// binary risk bit, so allocators can rank markets by expected cost.
//
// Determinism: a forecaster is a pure function of its observation sequence;
// feeding it from a PriceTrace via ObserveTrace is replayable and
// incremental (the returned index makes repeated feeding O(new points)).

#ifndef SRC_MARKET_PRICE_FORECASTER_H_
#define SRC_MARKET_PRICE_FORECASTER_H_

#include <cstddef>

#include "src/common/time.h"
#include "src/market/price_trace.h"

namespace spotcheck {

enum class PriceRegime : int {
  kCalm = 0,
  kElevated = 1,
  kSpike = 2,
};

struct PriceForecasterConfig {
  // EWMA smoothing per observation for the level.
  double mean_alpha = 0.2;
  // price / smoothed-level ratios that promote the regime.
  double elevated_ratio = 1.25;
  double spike_ratio = 2.0;
};

class PriceForecaster {
 public:
  explicit PriceForecaster(PriceForecasterConfig config = {})
      : config_(config) {}

  // Feeds one price observation (call on every market change point, in time
  // order).
  void Observe(SimTime t, double price);

  // Feeds every trace point in [from_index, ...) with time <= until and
  // returns the index of the first unconsumed point -- pass it back as
  // `from_index` next time for O(new points) incremental feeding.
  size_t ObserveTrace(const PriceTrace& trace, size_t from_index, SimTime until);

  bool primed() const { return primed_; }
  // The forecast price level ($/hr): the EWMA mean. 0 before any
  // observation.
  double forecast() const { return mean_; }
  // Regime of the most recent observation relative to the smoothed level.
  PriceRegime regime() const;

 private:
  PriceForecasterConfig config_;
  bool primed_ = false;
  double mean_ = 0.0;
  double last_price_ = 0.0;
};

}  // namespace spotcheck

#endif  // SRC_MARKET_PRICE_FORECASTER_H_
