#include "src/core/placement.h"

#include <algorithm>
#include <vector>

#include "src/backup/backup_pool.h"
#include "src/cloud/native_cloud.h"
#include "src/common/log.h"
#include "src/core/controller_config.h"
#include "src/core/event_log.h"
#include "src/core/host_pool.h"
#include "src/net/connection_tracker.h"
#include "src/net/nat_table.h"
#include "src/net/vpc.h"
#include "src/policy/registry.h"
#include "src/virt/activity_log.h"
#include "src/virt/migration_engine.h"

namespace spotcheck {
namespace {

std::vector<AvailabilityZone> ZoneSpan(const ControllerConfig& config) {
  std::vector<AvailabilityZone> zones;
  for (int i = 0; i < std::max(config.num_zones, 1); ++i) {
    zones.push_back(AvailabilityZone{config.zone.index + i});
  }
  return zones;
}

}  // namespace

PlacementEngine::PlacementEngine(ControllerContext* ctx) : ctx_(ctx) {
  // The Rng split label and seeding are pinned by the determinism golden
  // test: the weighted-draw stream must not move.
  PoolStrategyInit init;
  init.nested_type = ctx->config->nested_type;
  init.zones = ZoneSpan(*ctx->config);
  init.rng = Rng(ctx->config->seed).Split(0x9a9);
  pool_ = CreatePoolStrategyOrDie(
      ctx->config->policy_spec.value_or(PolicySpec{}).map, init);
}

void PlacementEngine::PlaceVm(NestedVm& vm) {
  const MarketKey pool = pool_->ChoosePool(
      MarketView(*ctx_->markets, ctx_->Now()), *ctx_->bid);
  SpanId span = 0;
  if (ctx_->tracer != nullptr) {
    SpanTracer& tracer = *ctx_->tracer;
    span = tracer.Begin(ctx_->Now(), "placement.place", "core",
                        tracer.Track("vm/" + vm.id().ToString()));
    tracer.AttrStr(span, "pool", pool.ToString());
    placing_spans_[vm.id()] = span;
  }
  const ScopedTraceParent trace_parent(ctx_->tracer, span);
  if (HostVm* host =
          ctx_->pool->FindHostWithCapacity(pool, /*spot=*/true, vm.spec())) {
    AttachVmToHost(vm, *host);
    return;
  }
  ctx_->pool->QueueOrAcquireSpot(
      pool, Waiter{vm.id(), WaitIntent::kInitialPlacement});
}

void PlacementEngine::OnInitialPlacementHostReady(NestedVm& vm, HostVm& host) {
  if (vm.state() == NestedVmState::kProvisioning) {
    AttachVmToHost(vm, host);
  }
}

void PlacementEngine::AttachVmToHost(NestedVm& vm, HostVm& host) {
  const auto span_it = placing_spans_.find(vm.id());
  const SpanId span = span_it != placing_spans_.end() ? span_it->second : 0;
  // Cloud operations triggered while binding (volume/address attachment,
  // retried spot launches) nest under the open placement span.
  const ScopedTraceParent trace_parent(ctx_->tracer, span);
  if (!host.AddVm(vm.id(), vm.spec())) {
    // Lost a capacity race (or a mis-sized host); place the VM afresh.
    SPOTCHECK_LOG(kWarning) << vm.id().ToString() << " does not fit on "
                            << host.instance().ToString() << "; re-placing";
    ctx_->pool->QueueOrAcquireSpot(
        host.market(), Waiter{vm.id(), WaitIntent::kInitialPlacement});
    return;
  }
  vm.set_host(host.instance());
  const bool was_new = vm.state() == NestedVmState::kProvisioning;
  vm.set_state(NestedVmState::kRunning);
  if (was_new) {
    ctx_->activity_log->MarkBirth(vm.id(), ctx_->Now());
    ctx_->event_log->Record(ctx_->Now(), ControllerEventKind::kVmPlaced,
                            vm.id(), host.instance(), host.market());
    // Persistent root volume and stable private address (Sections 3.4, 5).
    vm.set_root_volume(ctx_->cloud->CreateVolume(8.0));
    vm.set_address(ctx_->cloud->AllocateAddress());
    ctx_->cloud->AttachVolume(vm.root_volume(), host.instance());
    ctx_->cloud->AssignAddress(vm.address(), host.instance());
    // VPC private address + NAT binding in the nested hypervisor (Fig. 4);
    // the customer's first VM becomes the public head of its subnet.
    const auto ip = ctx_->vpc->AssignPrivateIp(vm.customer(), vm.id());
    if (ip.has_value()) {
      ctx_->network->MoveAddress(*ip, host.instance(), vm.id());
      if (!ctx_->vpc->PublicHead(vm.customer()).has_value()) {
        ctx_->vpc->SetPublicHead(vm.customer(), vm.id());
      }
    }
  }
  AssignBackup(vm);
  if (span != 0) {
    ctx_->tracer->AttrStr(span, "host", host.instance().ToString());
    ctx_->tracer->End(span, ctx_->Now());
    placing_spans_.erase(span_it);
  }
}

void PlacementEngine::AssignBackup(NestedVm& vm) {
  const HostVm* host = ctx_->pool->GetHost(vm.host());
  const bool needs_backup = host != nullptr && host->is_spot() &&
                            !vm.spec().stateless &&
                            MechanismNeedsBackup(ctx_->config->mechanism);
  if (needs_backup) {
    BackupServer& server = ctx_->backup_pool->Assign(
        vm.id(), vm.spec().checkpoint_demand_mbps, ctx_->Now());
    vm.set_backup(server.id());
  } else {
    ctx_->backup_pool->Release(vm.id());
    vm.set_backup(BackupServerId());
  }
}

void PlacementEngine::MoveVmToHost(NestedVm& vm, HostVm& destination) {
  const InstanceId old_host_id = vm.host();
  if (old_host_id != destination.instance()) {
    if (HostVm* old_host = ctx_->pool->GetMutableHost(old_host_id)) {
      old_host->RemoveVm(vm.id(), vm.spec());
    }
  }
  vm.set_host(destination.instance());
  if (destination.is_spot()) {
    ctx_->event_log->Record(ctx_->Now(),
                            ControllerEventKind::kRepatriationCompleted,
                            vm.id(), destination.instance(),
                            destination.market());
  }
  AssignBackup(vm);
  ctx_->cloud->AttachVolume(vm.root_volume(), destination.instance());
  ctx_->cloud->AssignAddress(vm.address(), destination.instance());
  // Live migrations pause for well under any TCP timeout; rebinding the
  // address keeps established connections alive.
  RebindNetwork(vm, SimDuration::Millis(200));
  ctx_->pool->MaybeReleaseHost(old_host_id);
}

void PlacementEngine::DetachVmFromCurrentHost(NestedVm& vm) {
  if (HostVm* host = ctx_->pool->GetMutableHost(vm.host())) {
    host->RemoveVm(vm.id(), vm.spec());
  }
  vm.set_host(InstanceId());
}

void PlacementEngine::RebindNetwork(NestedVm& vm, SimDuration outage) {
  const auto ip = ctx_->vpc->IpOf(vm.id());
  const HostVm* host = ctx_->pool->GetHost(vm.host());
  if (ip.has_value() && host != nullptr) {
    ctx_->network->MoveAddress(*ip, host->instance(), vm.id());
  }
  ctx_->connections->ApplyOutage(vm.id(), outage);
}

HostVm* PlacementEngine::PickSpareDestination(const NestedVmSpec& spec) {
  for (InstanceId instance : ctx_->pool->hot_spare_hosts()) {
    const HostVm* host = ctx_->pool->GetHost(instance);
    if (host == nullptr) {
      continue;
    }
    const Instance* native = ctx_->cloud->GetInstance(instance);
    if (native != nullptr && native->state == InstanceState::kRunning &&
        host->CanHost(spec)) {
      // Promote the spare to a regular on-demand host.
      return ctx_->pool->PromoteHotSpare(instance);
    }
  }
  return nullptr;
}

HostVm* PlacementEngine::PickStagingHost(const NestedVmSpec& spec,
                                         const MarketKey& exclude) {
  // Id-ordered fleet scan, exactly as the old host-map iteration was; the
  // first match wins. Staging is rare enough that O(hosts) is fine here.
  HostVm* found = nullptr;
  ctx_->pool->ForEachHost([&](HostVm& host) {
    if (found != nullptr) {
      return;
    }
    if (!host.is_spot() || host.market() == exclude || !host.CanHost(spec)) {
      return;
    }
    const Instance* native = ctx_->cloud->GetInstance(host.instance());
    if (native == nullptr || native->state != InstanceState::kRunning) {
      return;
    }
    // Only pools that are currently stable (price safely below the bid) make
    // sensible havens; a pool mid-spike would just revoke the VM again.
    SpotMarket* market = ctx_->markets->Find(host.market());
    if (market == nullptr ||
        market->CurrentPrice() > ctx_->bid->BidFor(host.market().type)) {
      return;
    }
    found = &host;
  });
  return found;
}

}  // namespace spotcheck
