#include "src/market/spot_market.h"

#include <utility>

#include "src/market/trace_catalog.h"
#include "src/obs/timeseries.h"

namespace spotcheck {

SpotMarket::SpotMarket(MarketKey key, PriceTrace trace)
    : SpotMarket(key, std::make_shared<const PriceTrace>(std::move(trace))) {}

SpotMarket::SpotMarket(MarketKey key, std::shared_ptr<const PriceTrace> trace)
    : key_(key), trace_(std::move(trace)), now_cursor_(trace_.get()) {}

double SpotMarket::CurrentPrice() const {
  MetricInc(price_lookups_metric_);
  if (override_active_) {
    return override_price_;
  }
  if (sim_ == nullptr) {
    return trace_->empty() ? 0.0 : trace_->price(0);
  }
  return now_cursor_.PriceAt(sim_->Now());
}

void SpotMarket::SetPriceOverride(double price) {
  override_active_ = true;
  override_price_ = price;
  FireListeners(price);
}

void SpotMarket::ClearPriceOverride() {
  if (!override_active_) {
    return;
  }
  override_active_ = false;
  // Resume the trace: listeners see the real current price again.
  FireListeners(CurrentPrice());
}

void SpotMarket::set_metrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    price_lookups_metric_ = nullptr;
    price_changes_metric_ = nullptr;
    return;
  }
  price_lookups_metric_ = &metrics->Counter("market.price_lookups");
  price_changes_metric_ = &metrics->Counter("market.price_changes_fired");
}

void SpotMarket::Subscribe(PriceListener listener) {
  listeners_.push_back(std::move(listener));
}

void SpotMarket::Attach(Simulator* sim) {
  sim_ = sim;
  // Replay the trace as a slotless stream: a six-month trace is ~100k change
  // points, and scheduling each as a regular event would pin ~100k callback
  // slots for the whole run. The stream consumes one sequence number per
  // point, exactly like the per-point ScheduleAt it replaces, so event
  // interleaving (and determinism) is unchanged.
  const uint32_t stream = sim->RegisterReplayStream(
      [](void* ctx, uint32_t index) {
        auto* market = static_cast<SpotMarket*>(ctx);
        market->FireListeners(market->trace_->price(index));
      },
      this);
  for (size_t i = 0; i < trace_->size(); ++i) {
    const SimTime when = trace_->time(i);
    if (when < sim->Now()) {
      continue;
    }
    sim->ScheduleStreamEvent(when, stream, static_cast<uint32_t>(i));
  }
}

void SpotMarket::FireListeners(double price) {
  if (override_active_ && price != override_price_) {
    // Trace replay fires while a shock override is pinned; swallow them (the
    // now_cursor_ keeps the real trace position for ClearPriceOverride).
    return;
  }
  MetricInc(price_changes_metric_);
  // Only the listeners present when the fire began: one subscribed by a
  // listener below hears the next change.
  const size_t count = listeners_.size();
  for (size_t i = 0; i < count; ++i) {
    listeners_[i](*this, price);
  }
}

SpotMarket& MarketPlace::GetOrCreate(MarketKey key, SimDuration horizon,
                                     uint64_t seed) {
  auto it = markets_.find(key);
  if (it == markets_.end()) {
    TraceCatalog::Lookup lookup;
    auto market = std::make_unique<SpotMarket>(
        key, TraceCatalog::Global().GetOrGenerate(key, horizon, seed, &lookup));
    ++(lookup.hit ? trace_cache_hits_ : trace_cache_misses_);
    trace_cache_lock_wait_ns_ += lookup.lock_wait_ns;
    if (metrics_ != nullptr) {
      // Wall time this cell spent blocked on the shared catalog; observational
      // only (wall clock never feeds simulation state).
      MetricInc(&metrics_->Counter("sim.trace_catalog.lock_wait_ns"),
                lookup.lock_wait_ns);
    }
    market->set_metrics(metrics_);
    market->Attach(sim_);
    it = markets_.emplace(key, std::move(market)).first;
  }
  return *it->second;
}

SpotMarket& MarketPlace::AddWithTrace(MarketKey key, PriceTrace trace) {
  auto market = std::make_unique<SpotMarket>(key, std::move(trace));
  market->set_metrics(metrics_);
  market->Attach(sim_);
  auto [it, inserted] = markets_.insert_or_assign(key, std::move(market));
  return *it->second;
}

SpotMarket* MarketPlace::Find(MarketKey key) {
  const auto it = markets_.find(key);
  return it == markets_.end() ? nullptr : it->second.get();
}

const SpotMarket* MarketPlace::Find(MarketKey key) const {
  const auto it = markets_.find(key);
  return it == markets_.end() ? nullptr : it->second.get();
}

void MarketPlace::RegisterTelemetry(TimeSeriesRecorder& ts) {
  ts.AddSeries("market.count",
               [this] { return static_cast<double>(markets_.size()); });
  ts.AddSeries("market.listeners", [this] {
    size_t n = 0;
    for (const auto& [key, market] : markets_) {
      n += market->num_listeners();
    }
    return static_cast<double>(n);
  });
}

std::vector<SpotMarket*> MarketPlace::All() {
  std::vector<SpotMarket*> all;
  all.reserve(markets_.size());
  for (auto& [key, market] : markets_) {
    all.push_back(market.get());
  }
  return all;
}

}  // namespace spotcheck
