#include "src/cloud/native_cloud.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/log.h"

namespace spotcheck {

NativeCloud::NativeCloud(Simulator* sim, MarketPlace* markets,
                         NativeCloudConfig config)
    : sim_(sim),
      markets_(markets),
      config_(config),
      latency_(Rng(config.latency_seed)),
      rng_(Rng(config.latency_seed).Split(0x10ad)) {
  if (config_.metrics != nullptr) {
    MetricsRegistry& metrics = *config_.metrics;
    launch_requests_metric_ = &metrics.Counter("cloud.launch_requests");
    launches_metric_ = &metrics.Counter("cloud.launches");
    launch_failures_metric_ = &metrics.Counter("cloud.launch_failures");
    terminations_metric_ = &metrics.Counter("cloud.terminations");
    revocation_warnings_metric_ = &metrics.Counter("cloud.revocation_warnings");
    instance_failures_metric_ = &metrics.Counter("cloud.instance_failures");
    // Table 1 latencies: spot launches dominate at up to ~10 minutes.
    op_latency_metric_ =
        &metrics.Histogram("cloud.op_latency_s", 0.0, 600.0, 60);
  }
}

SimDuration NativeCloud::OperationDelay(CloudOperation op) {
  const SimDuration delay = config_.sample_latencies
                                ? latency_.Sample(op)
                                : OperationLatencyModel::Typical(op);
  MetricObserve(op_latency_metric_, delay.seconds());
  return delay;
}

SpanId NativeCloud::TraceOp(std::string_view name, InstanceId instance,
                            SimDuration delay) {
  SpanTracer* tracer = config_.tracer;
  if (tracer == nullptr) {
    return 0;
  }
  const TraceTrackId track = tracer->Track("host/" + instance.ToString());
  return tracer->AddSpan(sim_->Now(), sim_->Now() + delay, name, "cloud",
                         track);
}

SpotMarket& NativeCloud::MarketFor(MarketKey key) {
  return markets_->GetOrCreate(key, config_.market_horizon, config_.market_seed);
}

InstanceId NativeCloud::RequestSpotInstance(MarketKey market, double bid) {
  const InstanceId id = instance_ids_.Next();
  Instance& instance = instances_.Emplace(id);
  instance.id = id;
  instance.market = market;
  instance.mode = BillingMode::kSpot;
  instance.bid = bid;
  MetricInc(launch_requests_metric_);
  MarketFor(market);  // Materialize the market (and its replay) now.
  const SimDuration delay = OperationDelay(CloudOperation::kStartSpotInstance);
  if (config_.tracer != nullptr) {
    config_.tracer->AttrStr(TraceOp("cloud.launch_spot", id, delay), "market",
                            market.ToString());
  }
  sim_->ScheduleAfter(delay, [this, id]() { OnInstanceStarted(id); });
  return id;
}

InstanceId NativeCloud::RequestOnDemandInstance(MarketKey market) {
  const InstanceId id = instance_ids_.Next();
  Instance& instance = instances_.Emplace(id);
  instance.id = id;
  instance.market = market;
  instance.mode = BillingMode::kOnDemand;
  MetricInc(launch_requests_metric_);
  const bool out_of_capacity =
      rng_.Bernoulli(config_.on_demand_unavailable_probability);
  const SimDuration delay =
      OperationDelay(CloudOperation::kStartOnDemandInstance);
  if (config_.tracer != nullptr) {
    config_.tracer->AttrStr(TraceOp("cloud.launch_ondemand", id, delay),
                            "market", market.ToString());
  }
  if (out_of_capacity) {
    // Out of capacity: fail after the request latency.
    sim_->ScheduleAfter(delay, [this, id]() { FailLaunch(instances_.At(id)); });
  } else {
    sim_->ScheduleAfter(delay, [this, id]() { OnInstanceStarted(id); });
  }
  return id;
}

void NativeCloud::FailLaunch(Instance& instance) {
  instance.state = InstanceState::kTerminated;
  MetricInc(launch_failures_metric_);
  if (launch_handler_) {
    launch_handler_(instance.id, false);
  }
}

void NativeCloud::OnInstanceStarted(InstanceId id) {
  Instance& instance = instances_.At(id);
  if (instance.state == InstanceState::kTerminated || !ZoneAvailable(instance.market.zone)) {
    // Terminated while still pending, or the zone went down.
    FailLaunch(instance);
    return;
  }
  SpotMarket& market = MarketFor(instance.market);
  if (instance.mode == BillingMode::kSpot) {
    if (market.CurrentPrice() > instance.bid ||
        (spot_launch_fault_hook_ && spot_launch_fault_hook_(instance))) {
      // Bid is already out of the money (or an injected capacity shortage
      // swallowed the request): the launch fails.
      FailLaunch(instance);
      return;
    }
    // Monitor this market for revocations (one subscription per market).
    SpotIndex& index = running_spot_[instance.market];
    if (index.market == nullptr) {
      index.market = &market;
      const MarketKey key = instance.market;
      index.listener =
          market.Subscribe([this, key](const SpotMarket&, double price) {
            OnMarketPriceChange(key, price);
          });
    }
    billing_.StartMetered(id, sim_->Now(), &market.trace());
    index.ids.push_back(id);
    index.min_bid = std::min(index.min_bid, instance.bid);
    DeclareQuietBand(index);
  } else {
    billing_.StartFixed(id, sim_->Now(), market.on_demand_price());
  }
  instance.state = InstanceState::kRunning;
  ++launches_;
  MetricInc(launches_metric_);
  if (launch_handler_) {
    launch_handler_(id, true);
  }
}

void NativeCloud::OnMarketPriceChange(MarketKey key, double price) {
  auto bucket_it = running_spot_.find(key);
  if (bucket_it == running_spot_.end()) {
    return;
  }
  SpotIndex& bucket = bucket_it->second;
  // Price changes outnumber revocations by orders of magnitude; when the new
  // price does not cross the (conservative) cached minimum bid, nobody can be
  // warned and the sweep below would only perform lazy compaction early, so
  // skip it entirely. DeclareQuietBand tells the market so: the kernel
  // replays such a point only when another listener can act on it.
  if (bucket.ids.empty() || price <= bucket.min_bid) {
    return;
  }
  // Compact terminated/warned ids in place, retighten the cached minimum over
  // the survivors, and collect those to warn; warning happens after the sweep
  // since it mutates instance state (and may re-enter through the handler).
  // Borrow the scratch buffer (moved, not referenced, so a handler that
  // re-enters this function gets its own empty buffer).
  std::vector<InstanceId> to_warn = std::move(to_warn_scratch_);
  to_warn.clear();
  double min_bid = std::numeric_limits<double>::infinity();
  size_t kept = 0;
  for (InstanceId id : bucket.ids) {
    const Instance& instance = instances_.At(id);
    if (instance.state != InstanceState::kRunning) {
      continue;  // warned or terminated: drop from the index
    }
    if (price > instance.bid) {
      to_warn.push_back(id);
    } else {
      min_bid = std::min(min_bid, instance.bid);
      bucket.ids[kept++] = id;
    }
  }
  bucket.ids.resize(kept);
  bucket.min_bid = min_bid;
  DeclareQuietBand(bucket);
  if (to_warn.empty()) {
    to_warn_scratch_ = std::move(to_warn);
    return;
  }
  const SimTime deadline = sim_->Now() + config_.revocation_warning;
  for (InstanceId id : to_warn) {
    WarnInstance(instances_.At(id), deadline);
  }
  // ONE terminator event for the whole warned cohort. A price spike that
  // revokes 100k hosts used to schedule 100k termination events; batching
  // preserves the replay order exactly -- ForceTerminate draws no RNG and
  // schedules no events, and the per-instance terminators all carried the
  // same timestamp and consecutive sequence numbers, so collapsing them
  // into one in-order loop leaves every other event's relative order
  // unchanged. The warned cohort's vector moves into the event; the scratch
  // buffer regrows on the next warning sweep (compaction-only sweeps, the
  // overwhelming majority, still reuse it via the empty-return above).
  sim_->ScheduleAt(deadline, [this, cohort = std::move(to_warn)]() {
    for (InstanceId id : cohort) {
      ForceTerminate(id);
    }
  });
}

void NativeCloud::DeclareQuietBand(const SpotIndex& index) {
  index.market->SetQuietBand(
      index.listener, -std::numeric_limits<double>::infinity(),
      index.ids.empty() ? std::numeric_limits<double>::infinity()
                        : index.min_bid);
}

void NativeCloud::WarnInstance(Instance& instance, SimTime deadline) {
  instance.state = InstanceState::kWarned;
  ++spot_revocations_;
  MetricInc(revocation_warnings_metric_);
  const InstanceId id = instance.id;
  SPOTCHECK_LOG(kInfo) << "revocation warning for " << id.ToString() << " in "
                       << instance.market.ToString() << ", termination at t+"
                       << config_.revocation_warning.seconds() << "s";
  if (revocation_handler_) {
    revocation_handler_(id, deadline);
  }
}

void NativeCloud::ForceTerminate(InstanceId id) {
  Instance& instance = instances_.At(id);
  if (instance.state == InstanceState::kTerminated) {
    return;  // Customer already terminated it during the warning period.
  }
  instance.state = InstanceState::kTerminated;
  billing_.Stop(id, sim_->Now());
  MetricInc(terminations_metric_);
}

void NativeCloud::ScheduleZoneOutage(AvailabilityZone zone, SimTime at,
                                     SimTime until) {
  sim_->ScheduleAt(at, [this, zone, until]() {
    SimTime& down_until = zone_down_until_[zone.index];
    down_until = std::max(down_until, until);
    FailZoneInstances(zone);
  });
}

bool NativeCloud::ZoneAvailable(AvailabilityZone zone) const {
  const auto it = zone_down_until_.find(zone.index);
  return it == zone_down_until_.end() || sim_->Now() >= it->second;
}

void NativeCloud::FailZoneInstances(AvailabilityZone zone) {
  std::vector<InstanceId> victims;
  instances_.ForEach([&](InstanceId id, const Instance& instance) {
    if (instance.market.zone == zone &&
        (instance.state == InstanceState::kRunning ||
         instance.state == InstanceState::kWarned)) {
      victims.push_back(id);
    }
  });
  for (InstanceId id : victims) {
    FailInstance(instances_.At(id));
  }
}

void NativeCloud::FailInstance(Instance& instance) {
  const InstanceId id = instance.id;
  instance.state = InstanceState::kTerminated;
  billing_.Stop(id, sim_->Now());
  ++instance_failures_;
  MetricInc(instance_failures_metric_);
  MetricInc(terminations_metric_);
  SPOTCHECK_LOG(kWarning) << "platform failure killed " << id.ToString()
                          << " in " << instance.market.ToString();
  if (failure_handler_) {
    failure_handler_(id);
  }
}

bool NativeCloud::InjectInstanceFailure(InstanceId id) {
  Instance* instance = instances_.Find(id);
  if (instance == nullptr || (instance->state != InstanceState::kRunning &&
                              instance->state != InstanceState::kWarned)) {
    return false;
  }
  FailInstance(*instance);
  return true;
}

void NativeCloud::TerminateInstance(InstanceId id) {
  Instance* found = instances_.Find(id);
  if (found == nullptr || found->state == InstanceState::kTerminated) {
    return;
  }
  // Billing stops at the customer's terminate call. The operation's
  // latency is still drawn: it feeds the latency stream, the histogram and
  // the span.
  billing_.Stop(id, sim_->Now());
  found->state = InstanceState::kTerminated;
  MetricInc(terminations_metric_);
  const SimDuration delay = OperationDelay(CloudOperation::kTerminateInstance);
  TraceOp("cloud.terminate", id, delay);
}

const Instance* NativeCloud::GetInstance(InstanceId id) const {
  return instances_.Find(id);
}

std::vector<const Instance*> NativeCloud::Instances(InstanceState state) const {
  std::vector<const Instance*> result;
  instances_.ForEach([&](InstanceId, const Instance& instance) {
    if (instance.state == state) {
      result.push_back(&instance);
    }
  });
  return result;
}

}  // namespace spotcheck
