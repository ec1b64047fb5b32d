#include "src/core/controller.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/obs/timeseries.h"
#include "src/policy/registry.h"

namespace spotcheck {

SpotCheckController::SpotCheckController(Simulator* sim, NativeCloud* cloud,
                                         MarketPlace* markets,
                                         ControllerConfig config)
    : sim_(sim),
      cloud_(cloud),
      markets_(markets),
      config_(config),
      engine_(sim, &activity_log_, config.engine, config.metrics,
              config.tracer),
      backup_pool_(config.backup, config.metrics, config.tracer,
                   config.profiler) {
  event_log_.set_enabled(config_.collect_event_log);
  // Populate the shared context, then construct the components against it
  // (each expects the platform handles and facade bookkeeping to be wired
  // before its constructor runs; see controller_context.h).
  ctx_.sim = sim_;
  ctx_.cloud = cloud_;
  ctx_.markets = markets_;
  ctx_.config = &config_;
  ctx_.metrics = config_.metrics;
  ctx_.tracer = config_.tracer;
  ctx_.profiler = config_.profiler;
  ctx_.activity_log = &activity_log_;
  ctx_.event_log = &event_log_;
  ctx_.engine = &engine_;
  ctx_.backup_pool = &backup_pool_;
  ctx_.storms = &storms_;
  ctx_.vpc = &vpc_;
  ctx_.vms = &vms_;
  // Own the bid strategy every component consults through ctx_.bid.
  policy_spec_ = config_.policy_spec.value_or(PolicySpec{});
  bid_strategy_ = CreateBidStrategyOrDie(policy_spec_.bid);
  ctx_.bid = bid_strategy_.get();

  pool_ = std::make_unique<HostPoolManager>(&ctx_);
  ctx_.pool = pool_.get();
  placement_ = std::make_unique<PlacementEngine>(&ctx_);
  ctx_.placement = placement_.get();
  evacuation_ = std::make_unique<EvacuationCoordinator>(&ctx_);
  ctx_.evacuation = evacuation_.get();
  market_watcher_ = std::make_unique<MarketWatcher>(&ctx_);
  ctx_.market_watcher = market_watcher_.get();
  repatriation_ = std::make_unique<RepatriationScheduler>(&ctx_);
  ctx_.repatriation = repatriation_.get();

  cloud_->set_revocation_handler(
      [this](InstanceId instance, SimTime deadline) {
        evacuation_->OnRevocationWarning(instance, deadline);
      });
  cloud_->set_instance_failure_handler(
      [this](InstanceId instance) { evacuation_->OnInstanceFailure(instance); });
  // Materialize all candidate markets so history-weighted policies can
  // consult their traces, and subscribe for pool dynamics.
  for (const MarketKey& key : placement_->candidates()) {
    cloud_->MarketFor(key);
    market_watcher_->Subscribe(key);
  }
  for (int i = 0; i < config_.hot_spares; ++i) {
    pool_->AcquireHost(ctx_.FallbackOnDemandMarket(), /*is_spot=*/false,
                       Waiter{}, /*hot_spare=*/true);
  }
}

CustomerId SpotCheckController::RegisterCustomer(std::string name) {
  const CustomerId id = customer_ids_.Next();
  customers_[id] = name.empty() ? id.ToString() : std::move(name);
  return id;
}

NestedVmId SpotCheckController::RequestServer(CustomerId customer,
                                              bool stateless) {
  const NestedVmId id = vm_ids_.Next();
  NestedVmSpec spec = MakeVmSpec(config_.nested_type, config_.workload);
  spec.stateless = stateless;
  NestedVm& ref = vms_.Emplace(id, id, customer, spec);
  ref.BindStateCounters(vm_state_counts_.data());
  event_log_.Record(sim_->Now(), ControllerEventKind::kVmRequested, id,
                    InstanceId(), ctx_.DefaultMarket(),
                    stateless ? "stateless" : "");
  placement_->PlaceVm(ref);
  return id;
}

void SpotCheckController::ReleaseServer(NestedVmId id) {
  NestedVm* found = vms_.Find(id);
  if (found == nullptr || !found->alive()) {
    return;
  }
  NestedVm& vm = *found;
  activity_log_.MarkDeath(id, sim_->Now());
  vm.set_state(NestedVmState::kTerminated);
  event_log_.Record(sim_->Now(), ControllerEventKind::kVmReleased, id,
                    vm.host(), ctx_.MarketOfOrDefault(vm.host()));
  backup_pool_.Release(id);
  vpc_.ReleasePrivateIp(id);
  const InstanceId old_host = vm.host();
  placement_->DetachVmFromCurrentHost(vm);
  pool_->MaybeReleaseHost(old_host);
}

const NestedVm* SpotCheckController::GetVm(NestedVmId vm) const {
  return vms_.Find(vm);
}

std::vector<const NestedVm*> SpotCheckController::Vms() const {
  std::vector<const NestedVm*> result;
  result.reserve(vms_.size());
  vms_.ForEach(
      [&](NestedVmId, const NestedVm& vm) { result.push_back(&vm); });
  return result;
}

int SpotCheckController::RunningVmCount() const {
  // O(1): set_state maintains the per-state population counters.
  return static_cast<int>(
      vm_state_counts_[static_cast<int>(NestedVmState::kRunning)] +
      vm_state_counts_[static_cast<int>(NestedVmState::kDegraded)]);
}

void SpotCheckController::RegisterTelemetry(TimeSeriesRecorder& ts) {
  for (int i = 0; i < kNumNestedVmStates; ++i) {
    const NestedVmState state = static_cast<NestedVmState>(i);
    ts.AddSeries(
        "fleet.vms." + std::string(NestedVmStateName(state)),
        [this, i] { return static_cast<double>(vm_state_counts_[i]); });
  }
  pool_->RegisterTelemetry(ts);
  ts.AddSeries("backup.servers", [this] {
    return static_cast<double>(backup_pool_.num_servers());
  });
  ts.AddSeries("backup.assigned_vms", [this] {
    return static_cast<double>(backup_pool_.num_assigned());
  });
}

std::string SpotCheckController::DumpState() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "SpotCheck controller @ %s | policy=%s mechanism=%s bid=%s\n",
                FormatTime(sim_->Now()).c_str(), policy_spec_.Label().c_str(),
                std::string(MigrationMechanismName(config_.mechanism)).c_str(),
                policy_spec_.bid.ToString().c_str());
  out += line;
  std::snprintf(line, sizeof(line),
                "vms=%zu hosts=%zu backups=%d revocations=%lld repatriations=%lld"
                " proactive=%lld stagings=%lld respawns=%lld\n",
                vms_.size(), pool_->num_hosts(), backup_pool_.num_servers(),
                static_cast<long long>(evacuation_->revocation_events()),
                static_cast<long long>(repatriation_->repatriations()),
                static_cast<long long>(repatriation_->proactive_migrations()),
                static_cast<long long>(evacuation_->stagings()),
                static_cast<long long>(evacuation_->stateless_respawns()));
  out += line;

  out += "-- nested VMs --\n";
  vms_.ForEach([&](NestedVmId id, const NestedVm& vm) {
    const HostVm* host = pool_->GetHost(vm.host());
    const auto ip = vpc_.IpOf(id);
    std::snprintf(line, sizeof(line),
                  "%-10s cust=%-8s state=%-12s host=%-18s ip=%-12s backup=%-8s"
                  " migrations=%lld%s\n",
                  id.ToString().c_str(), vm.customer().ToString().c_str(),
                  std::string(NestedVmStateName(vm.state())).c_str(),
                  host != nullptr ? host->market().ToString().c_str() : "-",
                  ip.has_value() ? ip->ToString().c_str() : "-",
                  vm.backup().valid() ? vm.backup().ToString().c_str() : "-",
                  static_cast<long long>(vm.migrations()),
                  vm.spec().stateless ? " [stateless]" : "");
    out += line;
  });
  out += pool_->DumpHosts();
  return out;
}

bool SpotCheckController::ValidateInvariants(std::string* error) const {
  std::string failure;
  const auto fail = [&failure](std::string message) {
    if (failure.empty()) {
      failure = std::move(message);
    }
  };
  // The O(1) per-state counters must agree with a full scan: every set_state
  // mutation site funnels through the bound counter array, so a drift here
  // means some code path bypassed NestedVm::set_state.
  std::array<int64_t, kNumNestedVmStates> scanned{};
  vms_.ForEach([&](NestedVmId id, const NestedVm& vm) {
    ++scanned[static_cast<int>(vm.state())];
    if (!failure.empty()) {
      return;
    }
    const NestedVmState state = vm.state();
    if (state != NestedVmState::kRunning && state != NestedVmState::kDegraded) {
      return;  // transitional or dead states are exempt
    }
    // Settled VMs live on a known, running host that lists them.
    const HostVm* host = pool_->GetHost(vm.host());
    if (host == nullptr) {
      return fail(id.ToString() + " is settled but has no host record");
    }
    const auto& members = host->vms();
    if (std::find(members.begin(), members.end(), id) == members.end()) {
      return fail(id.ToString() + " not listed on its host " +
                  vm.host().ToString());
    }
    const Instance* native = cloud_->GetInstance(host->instance());
    if (native == nullptr || native->state == InstanceState::kTerminated) {
      return fail(id.ToString() + " sits on a terminated native instance");
    }
    // Backup streams exactly when needed.
    const bool needs_backup = host->is_spot() && !vm.spec().stateless &&
                              MechanismNeedsBackup(config_.mechanism);
    const bool has_stream = backup_pool_.ServerFor(id) != nullptr;
    if (needs_backup != has_stream) {
      return fail(id.ToString() + (needs_backup ? " misses" : " leaks") +
                  " a backup stream");
    }
    // The stable private address routes to this VM, through its own host.
    const auto ip = vpc_.IpOf(id);
    if (!ip.has_value()) {
      return fail(id.ToString() + " has no private address");
    }
    const auto routed = vpc_.Route(*ip);
    if (!routed.has_value() || *routed != id) {
      return fail(id.ToString() + " address " + ip->ToString() +
                  " does not route to it");
    }
    if (vpc_.HostFor(*ip) != vm.host()) {
      return fail(id.ToString() + " address " + ip->ToString() +
                  " is forwarded by a host other than " +
                  vm.host().ToString());
    }
  });
  if (failure.empty() && scanned != vm_state_counts_) {
    fail("vm state counters drifted from a full scan");
  }
  if (!failure.empty()) {
    if (error != nullptr) {
      *error = std::move(failure);
    }
    return false;
  }
  return pool_->ValidateInvariants(error) &&
         repatriation_->ValidateInvariants(error);
}

// --- Reporting -------------------------------------------------------------------

SpotCheckController::CustomerReport SpotCheckController::ComputeCustomerReport(
    CustomerId customer) const {
  CustomerReport report;
  const SimTime now = sim_->Now();
  const double resale_price =
      config_.resale_fraction_of_on_demand * OnDemandPrice(config_.nested_type);
  vms_.ForEach([&](NestedVmId id, const NestedVm& vm) {
    if (vm.customer() != customer) {
      return;
    }
    ++report.vms;
    const SimDuration life = activity_log_.Lifetime(id, SimTime(), now);
    const SimDuration down =
        activity_log_.Total(id, ActivityKind::kDowntime, SimTime(), now);
    report.vm_hours += life.hours();
    report.downtime += down;
    report.revenue += (life - down).hours() * resale_price;
  });
  if (report.vm_hours > 0.0) {
    report.availability_pct =
        100.0 * (1.0 - report.downtime.hours() / report.vm_hours);
  }
  return report;
}

SpotCheckController::BusinessReport SpotCheckController::ComputeBusinessReport()
    const {
  BusinessReport report;
  for (const auto& [id, name] : customers_) {
    report.revenue += ComputeCustomerReport(id).revenue;
  }
  const CostReport costs = ComputeCostReport();
  report.platform_cost = costs.native_cost + costs.backup_cost;
  report.margin = report.revenue - report.platform_cost;
  report.margin_fraction =
      report.revenue > 0.0 ? report.margin / report.revenue : 0.0;
  return report;
}

SpotCheckController::CostReport SpotCheckController::ComputeCostReport() const {
  CostReport report;
  const SimTime now = sim_->Now();
  report.native_cost = cloud_->TotalCost();
  report.backup_cost = backup_pool_.TotalAccruedCost(now);
  vms_.ForEach([&](NestedVmId id, const NestedVm&) {
    report.vm_hours += activity_log_.Lifetime(id, SimTime(), now).hours();
  });
  report.avg_cost_per_vm_hour =
      report.vm_hours > 0.0
          ? (report.native_cost + report.backup_cost) / report.vm_hours
          : 0.0;
  return report;
}

}  // namespace spotcheck
