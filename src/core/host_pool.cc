#include "src/core/host_pool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/cloud/native_cloud.h"
#include "src/common/log.h"
#include "src/core/controller_config.h"
#include "src/obs/profiler.h"
#include "src/obs/timeseries.h"
#include "src/core/evacuation.h"
#include "src/core/placement.h"
#include "src/core/repatriation.h"
#include "src/policy/strategy.h"

namespace spotcheck {

const HostVm* HostPoolManager::GetHost(InstanceId instance) const {
  return hosts_.Find(instance);
}

HostVm* HostPoolManager::GetMutableHost(InstanceId instance) {
  return hosts_.Find(instance);
}

std::vector<const HostVm*> HostPoolManager::Hosts() const {
  std::vector<const HostVm*> result;
  result.reserve(hosts_.size());
  hosts_.ForEach(
      [&](InstanceId, const HostVm& host) { result.push_back(&host); });
  return result;
}

double HostPoolManager::PlaceableThresholdMb() const {
  if (placeable_threshold_mb_ < 0.0) {
    placeable_threshold_mb_ =
        NestedVmSpec::ForType(ctx_->config->nested_type).memory_mb;
  }
  return placeable_threshold_mb_;
}

void HostPoolManager::RefreshPlaceable(const HostVm& host) {
  // The single hottest index site: every AddVm/RemoveVm on a pooled host
  // lands here via OnHostOccupancyChanged.
  if (!host.is_spot()) {
    return;
  }
  ProfileScope scope(ctx_->profiler, ProfileCategory::kPoolPlaceableIndex);
  std::set<InstanceId>& bucket = placeable_spot_index_[host.market()];
  if (host.free_mb() >= PlaceableThresholdMb()) {
    if (bucket.insert(host.instance()).second) {
      ProfileAdd(ctx_->profiler, ProfileStat::kIndexInserts);
    }
  } else if (bucket.erase(host.instance()) > 0) {
    ProfileAdd(ctx_->profiler, ProfileStat::kIndexErases);
  }
}

void HostPoolManager::OnHostOccupancyChanged(HostVm& host,
                                             double used_delta_mb) {
  total_used_mb_ += used_delta_mb;
  RefreshPlaceable(host);
}

int HostPoolManager::SpotSlots(const MarketKey& market) const {
  return NestedSlotsPerHost(market.type, ctx_->config->nested_type);
}

HostVm* HostPoolManager::FindHostWithCapacity(const MarketKey& market,
                                              const NestedVmSpec& spec) {
  // The placeable sub-index is exact for specs of at least one standard
  // slot: every host that CanHost(spec) then has free_mb >= threshold and
  // so is in the subset, while the hosts the subset omits could not have
  // been selected anyway. Smaller bespoke specs fall back to the full
  // capacity index so sub-threshold headroom is not missed. Both walk in
  // id (= acquisition) order and re-check CanHost plus native state, so
  // the selection is identical to the whole-index scan.
  const bool standard = spec.memory_mb >= PlaceableThresholdMb();
  const auto& index = standard ? placeable_spot_index_ : spot_index_;
  const auto bucket = index.find(market);
  if (bucket == index.end()) {
    return nullptr;
  }
  for (InstanceId instance : bucket->second) {
    HostVm& host = hosts_.At(instance);
    if (!host.CanHost(spec)) {
      continue;
    }
    const Instance* native = ctx_->cloud->GetInstance(instance);
    if (native != nullptr && native->state == InstanceState::kRunning) {
      return &host;
    }
  }
  return nullptr;
}

std::vector<InstanceId> HostPoolManager::SpotHostsIn(
    const MarketKey& market) const {
  const auto bucket = spot_index_.find(market);
  if (bucket == spot_index_.end()) {
    return {};
  }
  return {bucket->second.begin(), bucket->second.end()};
}

void HostPoolManager::AcquireHost(MarketKey market, bool is_spot,
                                  Waiter first_waiter, bool hot_spare) {
  InstanceId instance;
  if (is_spot) {
    instance = ctx_->cloud->RequestSpotInstance(
        market, ctx_->bid->BidFor(market.type),
        [this](InstanceId id, bool ok) { OnHostReady(id, ok); });
  } else {
    instance = ctx_->cloud->RequestOnDemandInstance(
        market, [this](InstanceId id, bool ok) { OnHostReady(id, ok); });
  }
  PendingHost& pending = pending_hosts_[instance];
  pending.market = market;
  pending.is_spot = is_spot;
  pending.is_hot_spare = hot_spare;
  if (ctx_->tracer != nullptr) {
    // Open until OnHostReady; adopts the ambient parent, so an acquisition
    // issued mid-evacuation hangs off that evacuation's root span.
    SpanTracer& tracer = *ctx_->tracer;
    pending.span =
        tracer.Begin(ctx_->Now(), "pool.acquire", "core",
                     tracer.Track("host/" + instance.ToString()));
    tracer.AttrStr(pending.span, "market", market.ToString());
    tracer.AttrNum(pending.span, "spot", is_spot ? 1 : 0);
    if (hot_spare) {
      tracer.AttrNum(pending.span, "hot_spare", 1);
    }
  }
  if (first_waiter.vm.valid()) {
    pending.waiting.push_back(first_waiter);
    ++num_waiting_vms_;
  }
  if (is_spot && !hot_spare &&
      static_cast<int>(pending.waiting.size()) < SpotSlots(market)) {
    ProfileScope scope(ctx_->profiler, ProfileCategory::kPoolPendingJoin);
    joinable_spot_index_[market].insert(instance);
    ProfileAdd(ctx_->profiler, ProfileStat::kIndexInserts);
  }
  if (hot_spare) {
    ++pending_hot_spares_;
  }
}

void HostPoolManager::QueueOrAcquireSpot(const MarketKey& market,
                                         Waiter waiter) {
  // The joinable subset holds exactly the pending spot hosts of `market`
  // that still have a free nested slot. Waiters never leave a pending host
  // before it resolves, so fullness is monotone and the subset's minimum
  // id is the host the old first-with-room scan over every pending
  // acquisition would have picked.
  const auto bucket = joinable_spot_index_.find(market);
  if (bucket != joinable_spot_index_.end() && !bucket->second.empty()) {
    ProfileScope scope(ctx_->profiler, ProfileCategory::kPoolPendingJoin);
    const InstanceId instance = *bucket->second.begin();
    PendingHost& pending = pending_hosts_.at(instance);
    pending.waiting.push_back(waiter);
    ++num_waiting_vms_;
    if (static_cast<int>(pending.waiting.size()) >= SpotSlots(market)) {
      bucket->second.erase(bucket->second.begin());
      ProfileAdd(ctx_->profiler, ProfileStat::kIndexErases);
    }
    return;
  }
  AcquireHost(market, /*is_spot=*/true, waiter);
}

void HostPoolManager::OnHostReady(InstanceId instance, bool ok) {
  const auto it = pending_hosts_.find(instance);
  if (it == pending_hosts_.end()) {
    return;
  }
  PendingHost pending = std::move(it->second);
  pending_hosts_.erase(it);
  num_waiting_vms_ -= pending.waiting.size();
  if (pending.is_spot && !pending.is_hot_spare) {
    ProfileScope scope(ctx_->profiler, ProfileCategory::kPoolPendingJoin);
    ProfileAdd(ctx_->profiler, ProfileStat::kIndexErases,
               static_cast<int64_t>(
                   joinable_spot_index_[pending.market].erase(instance)));
  }
  if (pending.is_hot_spare) {
    --pending_hot_spares_;
  }
  TraceAttrNum(ctx_->tracer, pending.span, "ok", ok ? 1 : 0);
  TraceEnd(ctx_->tracer, pending.span, ctx_->Now());

  if (!ok) {
    // A spot request lost the race against a price move (or on-demand
    // capacity ran out): fall back to on-demand for the queued VMs and note
    // the pool for repatriation once prices recover.
    SPOTCHECK_LOG(kInfo) << "host launch failed in "
                         << pending.market.ToString()
                         << ", falling back to on-demand";
    for (const Waiter& waiter : pending.waiting) {
      if (ctx_->FindAliveVm(waiter.vm) == nullptr) {
        continue;
      }
      switch (waiter.intent) {
        case WaitIntent::kInitialPlacement:
          if (pending.is_spot) {
            AcquireHost(ctx_->FallbackOnDemandMarket(), /*is_spot=*/false,
                        waiter);
            if (ctx_->config->enable_repatriation) {
              ctx_->repatriation->EnqueueRepatriation(pending.market,
                                                      waiter.vm);
            }
          } else {
            // Even the on-demand market failed; retry (Section 4.3: some
            // type is always available somewhere -- here, retry until it is).
            AcquireHost(pending.market, /*is_spot=*/false, waiter);
          }
          break;
        case WaitIntent::kEvacuationDestination:
          // The evacuated VM's state is safe on the backup server; keep
          // retrying for a destination (downtime extends meanwhile).
          AcquireHost(ctx_->FallbackOnDemandMarket(), /*is_spot=*/false,
                      waiter);
          break;
        case WaitIntent::kPlannedMove:
          // The planned move's target pool spiked again; requeue for the
          // next price drop.
          ctx_->repatriation->OnPlannedMoveLaunchFailed(
              pending.market, pending.is_spot, waiter.vm);
          break;
      }
    }
    if (pending.is_hot_spare) {
      ReplenishHotSpares();
    }
    return;
  }

  HostVm& host_ref =
      hosts_.Emplace(instance, instance, pending.market, pending.is_spot);
  host_ref.set_occupancy_listener(this);
  total_capacity_mb_ += host_ref.capacity_mb();
  if (pending.is_hot_spare) {
    hot_spare_order_.push_back(instance);
    hot_spare_set_.insert(instance);
  } else if (pending.is_spot) {
    ProfileScope scope(ctx_->profiler, ProfileCategory::kPoolCapacityIndex);
    spot_index_[pending.market].insert(instance);
    ProfileAdd(ctx_->profiler, ProfileStat::kIndexInserts);
    RefreshPlaceable(host_ref);
  }
  if (pending.is_spot && ctx_->market_watcher != nullptr) {
    ctx_->market_watcher->Subscribe(pending.market);
  }

  for (const Waiter& waiter : pending.waiting) {
    NestedVm* vm = ctx_->FindAliveVm(waiter.vm);
    if (vm == nullptr) {
      continue;
    }
    switch (waiter.intent) {
      case WaitIntent::kInitialPlacement:
        ctx_->placement->OnInitialPlacementHostReady(*vm, host_ref);
        break;
      case WaitIntent::kPlannedMove:
        ctx_->repatriation->OnPlannedMoveHostReady(*vm, host_ref,
                                                   pending.market,
                                                   pending.is_spot);
        break;
      case WaitIntent::kEvacuationDestination:
        ctx_->evacuation->OnDestinationHostReady(*vm, host_ref);
        break;
    }
  }
  MaybeReleaseHost(instance);  // All waiters may have died meanwhile.
}

void HostPoolManager::MaybeReleaseHost(InstanceId instance) {
  HostVm* host = hosts_.Find(instance);
  if (host == nullptr || !host->empty()) {
    return;
  }
  if (hot_spare_set_.contains(instance)) {
    return;  // spares stay up even when idle
  }
  const Instance* native = ctx_->cloud->GetInstance(instance);
  if (native != nullptr && native->state != InstanceState::kTerminated) {
    ctx_->cloud->TerminateInstance(instance);
  }
  if (host->is_spot()) {
    ProfileScope scope(ctx_->profiler, ProfileCategory::kPoolCapacityIndex);
    ProfileAdd(ctx_->profiler, ProfileStat::kIndexErases,
               static_cast<int64_t>(
                   spot_index_[host->market()].erase(instance) +
                   placeable_spot_index_[host->market()].erase(instance)));
  }
  total_capacity_mb_ -= host->capacity_mb();
  total_used_mb_ -= host->used_mb();
  hosts_.Erase(instance);
}

void HostPoolManager::ReplenishHotSpares() {
  const int current =
      static_cast<int>(hot_spare_order_.size()) + pending_hot_spares_;
  for (int i = current; i < ctx_->config->hot_spares; ++i) {
    AcquireHost(ctx_->FallbackOnDemandMarket(), /*is_spot=*/false, Waiter{},
                /*hot_spare=*/true);
  }
}

HostVm* HostPoolManager::PromoteHotSpare(InstanceId instance) {
  HostVm* host = hosts_.Find(instance);
  if (host == nullptr) {
    return nullptr;
  }
  hot_spare_set_.erase(instance);
  hot_spare_order_.erase(
      std::remove(hot_spare_order_.begin(), hot_spare_order_.end(), instance),
      hot_spare_order_.end());
  return host;
}

void HostPoolManager::RegisterTelemetry(TimeSeriesRecorder& ts) {
  ts.AddSeries("pool.hosts",
               [this] { return static_cast<double>(hosts_.size()); });
  ts.AddSeries("pool.pending_hosts",
               [this] { return static_cast<double>(pending_hosts_.size()); });
  ts.AddSeries("pool.capacity_mb", [this] { return total_capacity_mb_; });
  ts.AddSeries("pool.used_mb", [this] { return total_used_mb_; });
  ts.AddSeries("pool.waiting_vms",
               [this] { return static_cast<double>(num_waiting_vms_); });
  // Index entry totals: the fleet-scale suspects. Each sampler sums one
  // index family across markets (market count is small and fixed).
  const auto entries = [](const std::map<MarketKey, std::set<InstanceId>>& m) {
    size_t n = 0;
    for (const auto& [market, bucket] : m) {
      n += bucket.size();
    }
    return static_cast<double>(n);
  };
  ts.AddSeries("pool.index.capacity_entries",
               [this, entries] { return entries(spot_index_); });
  ts.AddSeries("pool.index.placeable_entries",
               [this, entries] { return entries(placeable_spot_index_); });
  ts.AddSeries("pool.index.pending_entries",
               [this, entries] { return entries(joinable_spot_index_); });
}

std::string HostPoolManager::DumpHosts() const {
  std::string out = "-- hosts --\n";
  char line[256];
  hosts_.ForEach([&](InstanceId instance, const HostVm& host) {
    std::snprintf(line, sizeof(line),
                  "%-10s %-20s %-9s vms=%d used=%.0f/%.0fMB\n",
                  instance.ToString().c_str(), host.market().ToString().c_str(),
                  host.is_spot() ? "spot" : "on-demand", host.num_vms(),
                  host.used_mb(), host.capacity_mb());
    out += line;
  });
  return out;
}

bool HostPoolManager::ValidateInvariants(std::string* error) const {
  std::string failure;
  const auto fail = [&failure](std::string message) {
    if (failure.empty()) {
      failure = std::move(message);
    }
  };
  const double threshold = PlaceableThresholdMb();
  // Host capacity accounting: used memory equals the sum of resident specs,
  // never exceeds capacity, and no host retains a dead VM (a failed VM may
  // linger only while its evacuation record is still being finalized).
  // The same pass tallies the fleet aggregates for the drift checks below.
  double scanned_capacity = 0.0;
  double scanned_used = 0.0;
  hosts_.ForEach([&](InstanceId instance, const HostVm& host) {
    scanned_capacity += host.capacity_mb();
    scanned_used += host.used_mb();
    if (!failure.empty()) {
      return;
    }
    double used = 0.0;
    for (NestedVmId member : host.vms()) {
      const NestedVm* vm = ctx_->FindVm(member);
      if (vm == nullptr) {
        return fail(instance.ToString() + " lists unknown VM");
      }
      if (!vm->alive() && (ctx_->evacuation == nullptr ||
                           !ctx_->evacuation->IsEvacuating(member))) {
        return fail(instance.ToString() + " retains dead VM " +
                    member.ToString() + " (leaked capacity)");
      }
      used += vm->spec().memory_mb;
    }
    if (std::abs(used - host.used_mb()) > 1e-6) {
      return fail(instance.ToString() + " capacity accounting drifted");
    }
    if (host.used_mb() > host.capacity_mb() + 1e-6) {
      return fail(instance.ToString() + " is over capacity");
    }
    // Index consistency: hot spares are on-demand, and every spot host is
    // indexed under its own market.
    if (!host.is_spot()) {
      return;
    }
    if (hot_spare_set_.contains(instance)) {
      return fail(instance.ToString() + " is a spot hot spare");
    }
    const auto bucket = spot_index_.find(host.market());
    if (bucket == spot_index_.end() || !bucket->second.contains(instance)) {
      return fail(instance.ToString() + " missing from its capacity index");
    }
    // The placeable sub-index holds exactly the spot hosts with at least
    // one standard nested slot free.
    const auto pbucket = placeable_spot_index_.find(host.market());
    const bool placeable = pbucket != placeable_spot_index_.end() &&
                           pbucket->second.contains(instance);
    if (placeable != (host.free_mb() >= threshold)) {
      return fail(instance.ToString() +
                  (placeable ? " placeable without a free standard slot"
                             : " missing from the placeable sub-index"));
    }
  });
  if (failure.empty()) {
    // No index entry may outlive its host record.
    for (const auto* index : {&spot_index_, &placeable_spot_index_}) {
      for (const auto& [market, bucket] : *index) {
        for (InstanceId instance : bucket) {
          const HostVm* host = hosts_.Find(instance);
          if (host == nullptr || !host->is_spot() ||
              !(host->market() == market)) {
            fail("capacity index holds stale host " + instance.ToString() +
                 " for " + market.ToString());
          }
        }
      }
    }
    // A launch is joinable exactly when it is a pending, non-spare spot
    // launch with a free nested slot; counting those catches stale entries.
    size_t joinable = 0;
    for (const auto& [instance, pending] : pending_hosts_) {
      const bool has_room =
          pending.is_spot && !pending.is_hot_spare &&
          static_cast<int>(pending.waiting.size()) < SpotSlots(pending.market);
      const auto jbucket = joinable_spot_index_.find(pending.market);
      const bool indexed = jbucket != joinable_spot_index_.end() &&
                           jbucket->second.contains(instance);
      if (has_room != indexed) {
        fail(instance.ToString() + (indexed ? " joinable while full"
                                            : " has room but is not joinable"));
      }
      joinable += has_room ? 1 : 0;
    }
    size_t joinable_entries = 0;
    for (const auto& [market, bucket] : joinable_spot_index_) {
      joinable_entries += bucket.size();
    }
    if (joinable_entries != joinable) {
      fail("joinable-spot index holds a stale host");
    }
    if (hot_spare_set_.size() != hot_spare_order_.size()) {
      fail("hot-spare set and order list drifted");
    }
    // O(1) aggregates vs. the full scans (relative tolerance: the sums are
    // accumulated in different orders).
    const auto drifted = [](double incremental, double scanned) {
      return std::abs(incremental - scanned) >
             1e-6 * std::max(1.0, std::abs(scanned));
    };
    if (drifted(total_capacity_mb_, scanned_capacity)) {
      fail("fleet capacity aggregate drifted from a full scan");
    }
    if (drifted(total_used_mb_, scanned_used)) {
      fail("fleet used-memory aggregate drifted from a full scan");
    }
    size_t waiting = 0;
    for (const auto& [instance, pending] : pending_hosts_) {
      waiting += pending.waiting.size();
    }
    if (waiting != num_waiting_vms_) {
      fail("waiter aggregate drifted from a full scan");
    }
  }
  if (!failure.empty()) {
    if (error != nullptr) {
      *error = std::move(failure);
    }
    return false;
  }
  return true;
}

}  // namespace spotcheck
