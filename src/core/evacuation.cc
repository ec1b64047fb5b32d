#include "src/core/evacuation.h"

#include <cstdio>
#include <string>
#include <vector>

#include "src/backup/backup_pool.h"
#include "src/cloud/native_cloud.h"
#include "src/common/log.h"
#include "src/core/controller_config.h"
#include "src/core/event_log.h"
#include "src/core/host_pool.h"
#include "src/core/placement.h"
#include "src/core/repatriation.h"
#include "src/core/storm_tracker.h"
#include "src/virt/activity_log.h"

namespace spotcheck {

EvacuationCoordinator::EvacuationCoordinator(ControllerContext* ctx)
    : ctx_(ctx) {
  if (ctx_->metrics != nullptr) {
    MetricsRegistry& metrics = *ctx_->metrics;
    revocation_events_metric_ =
        &metrics.Counter("controller.revocation_events");
    stateless_respawns_metric_ =
        &metrics.Counter("controller.stateless_respawns");
    stagings_metric_ = &metrics.Counter("controller.stagings");
    vms_lost_metric_ = &metrics.Counter("controller.vms_lost");
    backup_restores_metric_ = &metrics.Counter("controller.backup_restores");
    migrations_by_mechanism_metric_ = &metrics.Counter(
        std::string("controller.migrations.") +
        std::string(MigrationMechanismName(ctx_->config->mechanism)));
  }
}

void EvacuationCoordinator::OnRevocationWarning(InstanceId instance,
                                                SimTime deadline) {
  HostVm* host = ctx_->pool->GetMutableHost(instance);
  if (host == nullptr) {
    return;
  }
  ++revocation_events_;
  MetricInc(revocation_events_metric_);
  ctx_->event_log->Record(ctx_->Now(), ControllerEventKind::kRevocationWarning,
                          NestedVmId(), instance, host->market(),
                          "vms=" + std::to_string(host->num_vms()));
  const std::vector<NestedVmId> resident = host->vms();  // copy: we mutate
  int evacuating = 0;
  for (NestedVmId vm_id : resident) {
    NestedVm* vm = ctx_->FindAliveVm(vm_id);
    if (vm == nullptr) {
      continue;
    }
    if (vm->state() != NestedVmState::kRunning &&
        vm->state() != NestedVmState::kDegraded) {
      continue;  // already mid-migration
    }
    ++evacuating;
    EvacuateVm(*vm, deadline);
  }
  if (evacuating > 0) {
    ctx_->storms->RecordBatch(ctx_->Now(), evacuating);
  }
}

void EvacuationCoordinator::OnInstanceFailure(InstanceId instance) {
  HostVm* host = ctx_->pool->GetMutableHost(instance);
  if (host == nullptr) {
    return;
  }
  const std::vector<NestedVmId> resident = host->vms();  // copy: we mutate
  for (NestedVmId vm_id : resident) {
    NestedVm* vm_ptr = ctx_->FindAliveVm(vm_id);
    if (vm_ptr == nullptr) {
      continue;
    }
    NestedVm& vm = *vm_ptr;
    if (vm.state() != NestedVmState::kRunning &&
        vm.state() != NestedVmState::kDegraded) {
      continue;  // an in-flight migration handles (or already left) this VM
    }
    if (vm.spec().stateless) {
      RespawnStateless(vm, ctx_->Now());
      continue;
    }
    BackupServer* backup = ctx_->backup_pool->ServerFor(vm.id());
    if (backup == nullptr) {
      // Live-migration-only VM with no checkpoint anywhere: state is gone.
      ++vms_lost_;
      MetricInc(vms_lost_metric_);
      vm.set_state(NestedVmState::kFailed);
      ctx_->activity_log->MarkDeath(vm.id(), ctx_->Now());
      host->RemoveVm(vm.id(), vm.spec());
      ctx_->event_log->Record(ctx_->Now(), ControllerEventKind::kVmLost,
                              vm.id(), instance, host->market(),
                              "platform failure, no backup");
      if (ctx_->tracer != nullptr) {
        SpanTracer& tracer = *ctx_->tracer;
        tracer.Instant(ctx_->Now(), "vm.lost", "core",
                       tracer.Track("vm/" + vm.id().ToString()));
      }
      SPOTCHECK_LOG(kError) << vm.id().ToString()
                            << " lost to a platform failure (no backup)";
      continue;
    }
    // Recover from the last checkpoint: at most the stale threshold of
    // execution rolls back, but the VM survives.
    EvacuationState& evac = evacuating_[vm.id()];
    evac.mechanism = ctx_->config->mechanism;
    evac.backup = backup;
    evac.old_host = instance;
    evac.old_market = host->market();
    evac.deadline = ctx_->Now();
    evac.committed = true;  // the surviving checkpoint IS the commit
    if (ctx_->tracer != nullptr) {
      SpanTracer& tracer = *ctx_->tracer;
      evac.span = tracer.Begin(ctx_->Now(), "crash_recovery", "core",
                               tracer.Track("vm/" + vm.id().ToString()));
      tracer.AttrStr(evac.span, "mechanism",
                     MigrationMechanismName(evac.mechanism));
      tracer.AttrStr(evac.span, "from_market", evac.old_market.ToString());
      evac.restore_hold_span = tracer.Begin(
          ctx_->Now(), "backup.restore_hold", "backup",
          tracer.Track("backup/" + backup->id().ToString()), evac.span);
    }
    const ScopedTraceParent trace_parent(ctx_->tracer, evac.span);
    backup->BeginRestore(vm.id());
    MetricInc(backup_restores_metric_);
    ctx_->engine->BeginCrashRecovery(vm, ctx_->Now());
    ctx_->event_log->Record(ctx_->Now(), ControllerEventKind::kCrashRecovery,
                            vm.id(), instance, host->market());
    vm.set_host(InstanceId());
    if (ctx_->tracer != nullptr) {
      evac.wait_span = ctx_->tracer->Begin(
          ctx_->Now(), "evac.wait_destination", "core",
          ctx_->tracer->Track("vm/" + vm.id().ToString()), evac.span);
    }
    ctx_->pool->AcquireHost(ctx_->FallbackOnDemandMarket(), /*is_spot=*/false,
                            Waiter{vm.id(), WaitIntent::kEvacuationDestination});
  }
  ctx_->pool->MaybeReleaseHost(instance);
}

void EvacuationCoordinator::EvacuateVm(NestedVm& vm, SimTime deadline) {
  if (vm.spec().stateless) {
    RespawnStateless(vm, deadline);
    return;
  }
  EvacuationState& evac = evacuating_[vm.id()];
  evac.mechanism = ctx_->config->mechanism;
  evac.backup = ctx_->backup_pool->ServerFor(vm.id());
  evac.old_host = vm.host();
  evac.old_market = ctx_->MarketOfOrDefault(vm.host());
  evac.deadline = deadline;
  ctx_->event_log->Record(ctx_->Now(), ControllerEventKind::kEvacuationStarted,
                          vm.id(), evac.old_host, evac.old_market);
  if (ctx_->tracer != nullptr) {
    // Root of this VM's causal tree, open until FinalizeEvacuation. Every
    // span recorded inside this function's scope -- commit phases, backup
    // holds, host acquisitions, cloud operations -- hangs off it.
    SpanTracer& tracer = *ctx_->tracer;
    evac.span = tracer.Begin(ctx_->Now(), "evacuation", "core",
                             tracer.Track("vm/" + vm.id().ToString()));
    tracer.AttrStr(evac.span, "mechanism",
                   MigrationMechanismName(evac.mechanism));
    tracer.AttrStr(evac.span, "from_market", evac.old_market.ToString());
  }
  const ScopedTraceParent trace_parent(ctx_->tracer, evac.span);

  // Phase 1: get the state safe. Xen-live has nothing to commit (and nothing
  // saved -- it bets everything on the pre-copy).
  if (MechanismNeedsBackup(ctx_->config->mechanism)) {
    if (evac.backup != nullptr) {
      evac.backup->BeginRestore(vm.id());
      MetricInc(backup_restores_metric_);
      if (ctx_->tracer != nullptr) {
        evac.restore_hold_span = ctx_->tracer->Begin(
            ctx_->Now(), "backup.restore_hold", "backup",
            ctx_->tracer->Track("backup/" + evac.backup->id().ToString()),
            evac.span);
      }
    }
    ctx_->engine->BeginEvacuation(vm, ctx_->config->mechanism, deadline,
                                  [this, &vm]() {
                                    const auto it = evacuating_.find(vm.id());
                                    if (it != evacuating_.end()) {
                                      it->second.committed = true;
                                      MaybeCompleteEvacuation(vm);
                                    }
                                  });
  } else {
    vm.set_state(NestedVmState::kMigrating);
    evac.committed = true;
  }

  // Destination preference: a hot spare, then (when enabled) a staging host
  // in another stable pool, then a fresh on-demand server (its ~60 s launch
  // fits comfortably inside the 120 s warning).
  if (HostVm* spare = ctx_->placement->PickSpareDestination(vm.spec())) {
    spare->AddVm(vm.id(), vm.spec());
    vm.set_host(spare->instance());
    evac.dest_ready = true;
    TraceAttrStr(ctx_->tracer, evac.span, "destination", "hot_spare");
    ctx_->pool->ReplenishHotSpares();
    MaybeCompleteEvacuation(vm);
    return;
  }
  if (ctx_->config->use_staging) {
    if (HostVm* staging =
            ctx_->placement->PickStagingHost(vm.spec(), evac.old_market)) {
      staging->AddVm(vm.id(), vm.spec());
      vm.set_host(staging->instance());
      evac.dest_ready = true;
      evac.staged = true;
      evac.staging_market = staging->market();
      TraceAttrStr(ctx_->tracer, evac.span, "destination", "staging");
      ++stagings_;
      MetricInc(stagings_metric_);
      MaybeCompleteEvacuation(vm);
      return;
    }
  }
  vm.set_host(InstanceId());  // assigned when the on-demand host is up
  TraceAttrStr(ctx_->tracer, evac.span, "destination", "on_demand");
  if (ctx_->tracer != nullptr) {
    evac.wait_span = ctx_->tracer->Begin(
        ctx_->Now(), "evac.wait_destination", "core",
        ctx_->tracer->Track("vm/" + vm.id().ToString()), evac.span);
  }
  ctx_->pool->AcquireHost(ctx_->FallbackOnDemandMarket(), /*is_spot=*/false,
                          Waiter{vm.id(), WaitIntent::kEvacuationDestination});
}

void EvacuationCoordinator::RespawnStateless(NestedVm& vm, SimTime deadline) {
  // No state to save: let the old replica serve until the platform kills it
  // at `deadline`, and boot a replacement that takes over. The replacement
  // launches well within the warning, so the tier never loses capacity.
  (void)deadline;
  ++stateless_respawns_;
  MetricInc(stateless_respawns_metric_);
  ctx_->event_log->Record(ctx_->Now(), ControllerEventKind::kStatelessRespawn,
                          vm.id(), vm.host(), ctx_->MarketOfOrDefault(vm.host()));
  const InstanceId old_host_id = vm.host();
  const MarketKey old_market = ctx_->MarketOfOrDefault(old_host_id);
  SpanId root = 0;
  SpanId wait = 0;
  if (ctx_->tracer != nullptr) {
    SpanTracer& tracer = *ctx_->tracer;
    const TraceTrackId track = tracer.Track("vm/" + vm.id().ToString());
    root = tracer.Begin(ctx_->Now(), "stateless_respawn", "core", track);
    tracer.AttrStr(root, "from_market", old_market.ToString());
    wait = tracer.Begin(ctx_->Now(), "evac.wait_destination", "core", track,
                        root);
  }
  const ScopedTraceParent trace_parent(ctx_->tracer, root);
  vm.set_state(NestedVmState::kMigrating);  // replica swap in progress
  vm.set_host(InstanceId());
  ctx_->pool->AcquireHost(ctx_->FallbackOnDemandMarket(), /*is_spot=*/false,
                          Waiter{vm.id(), WaitIntent::kEvacuationDestination});
  // A minimal evacuation record so the destination-ready path completes the
  // swap through the common machinery -- committed from the start (there is
  // no state to commit) and with no backup involvement.
  EvacuationState& evac = evacuating_[vm.id()];
  evac.mechanism = MigrationMechanism::kXenLiveMigration;  // no restore
  evac.backup = nullptr;
  evac.old_host = old_host_id;
  evac.old_market = old_market;
  evac.deadline = deadline;
  evac.committed = true;
  evac.span = root;
  evac.wait_span = wait;
}

void EvacuationCoordinator::OnDestinationHostReady(NestedVm& vm, HostVm& host) {
  const auto it = evacuating_.find(vm.id());
  EvacuationState* evac = it != evacuating_.end() ? &it->second : nullptr;
  // Reserve capacity; phase 2 of the evacuation runs once the checkpoint
  // commit also lands.
  if (!host.AddVm(vm.id(), vm.spec())) {
    // Capacity race against a co-waiter: this VM's state is still safe
    // on the backup server, so keep hunting for a destination (the
    // wait-for-destination span stays open across the retry).
    const ScopedTraceParent trace_parent(ctx_->tracer,
                                         evac != nullptr ? evac->span : 0);
    ctx_->pool->AcquireHost(ctx_->FallbackOnDemandMarket(), /*is_spot=*/false,
                            Waiter{vm.id(), WaitIntent::kEvacuationDestination});
    return;
  }
  vm.set_host(host.instance());
  if (evac != nullptr) {
    TraceEnd(ctx_->tracer, evac->wait_span, ctx_->Now());
    evac->dest_ready = true;
    MaybeCompleteEvacuation(vm);
  }
}

void EvacuationCoordinator::MaybeCompleteEvacuation(NestedVm& vm) {
  const auto it = evacuating_.find(vm.id());
  if (it == evacuating_.end()) {
    return;
  }
  EvacuationState& evac = it->second;
  if (!evac.committed || !evac.dest_ready || evac.completing) {
    return;
  }
  evac.completing = true;
  // Phase-2 mechanics (live-race arbitration, EC2 ops, restore) record their
  // spans synchronously inside these calls; parent them under the root.
  const ScopedTraceParent trace_parent(ctx_->tracer, evac.span);
  if (vm.spec().stateless) {
    // Fresh replica boot: nothing to transfer, no downtime charged to the
    // tier (the old replica served until its termination).
    MigrationOutcome outcome;
    outcome.success = true;
    outcome.completed_at = ctx_->Now();
    vm.set_state(NestedVmState::kRunning);
    FinalizeEvacuation(vm, outcome);
    return;
  }
  if (evac.mechanism == MigrationMechanism::kXenLiveMigration) {
    ctx_->engine->LiveEvacuate(vm, evac.deadline,
                               [this, &vm](const MigrationOutcome& out) {
                                 FinalizeEvacuation(vm, out);
                               });
    return;
  }
  const int concurrent =
      evac.backup != nullptr ? evac.backup->active_restores() : 1;
  ctx_->engine->CompleteEvacuation(vm, evac.mechanism, evac.backup, concurrent,
                                   [this, &vm](const MigrationOutcome& out) {
                                     FinalizeEvacuation(vm, out);
                                   });
}

void EvacuationCoordinator::FinalizeEvacuation(NestedVm& vm,
                                               const MigrationOutcome& outcome) {
  const auto it = evacuating_.find(vm.id());
  if (it == evacuating_.end()) {
    return;
  }
  const EvacuationState evac = it->second;
  evacuating_.erase(it);

  if (evac.backup != nullptr) {
    evac.backup->EndRestore(vm.id());
    TraceEnd(ctx_->tracer, evac.restore_hold_span, ctx_->Now());
  }
  // Drop the stale membership in the revoked host; once empty, its (already
  // terminated) record is reaped.
  if (HostVm* old_host = ctx_->pool->GetMutableHost(evac.old_host)) {
    old_host->RemoveVm(vm.id(), vm.spec());
  }
  ctx_->pool->MaybeReleaseHost(evac.old_host);
  ctx_->backup_pool->Release(vm.id());
  vm.set_backup(BackupServerId());
  if (!outcome.success) {
    // VM lost (live-migration race defeat). It was pre-added to its
    // destination (hot spare / staging / fresh on-demand) when the
    // evacuation started; reclaim that capacity or the slot leaks forever
    // -- and an idle destination would be billed indefinitely.
    const InstanceId dest_host = vm.host();
    if (dest_host != evac.old_host) {
      if (HostVm* dest = ctx_->pool->GetMutableHost(dest_host)) {
        dest->RemoveVm(vm.id(), vm.spec());
      }
    }
    vm.set_host(InstanceId());
    ++vms_lost_;
    MetricInc(vms_lost_metric_);
    ctx_->event_log->Record(ctx_->Now(), ControllerEventKind::kVmLost, vm.id(),
                            evac.old_host, evac.old_market,
                            "live-migration race");
    TraceAttrNum(ctx_->tracer, evac.span, "lost", 1);
    TraceEnd(ctx_->tracer, evac.span, ctx_->Now());
    ctx_->pool->MaybeReleaseHost(dest_host);
    return;
  }
  MetricInc(migrations_by_mechanism_metric_);
  {
    char detail[64];
    std::snprintf(detail, sizeof(detail), "downtime=%.1fs degraded=%.1fs",
                  outcome.downtime.seconds(), outcome.degraded.seconds());
    ctx_->event_log->Record(ctx_->Now(),
                            ControllerEventKind::kEvacuationCompleted, vm.id(),
                            vm.host(), evac.old_market, detail);
  }
  if (evac.staged) {
    // The VM landed on a borrowed spot host: re-arm its backup stream there
    // and launch the real destination in the (stable) staging pool; a live
    // migration will relieve the staging host once it is up.
    ctx_->placement->AssignBackup(vm);
    ctx_->repatriation->AddPendingMove(vm.id());
    ctx_->pool->QueueOrAcquireSpot(evac.staging_market,
                                   Waiter{vm.id(), WaitIntent::kPlannedMove});
  }
  // Off-spot (or borrowed) placement: return home when prices recover.
  if (ctx_->config->enable_repatriation) {
    ctx_->repatriation->EnqueueRepatriation(evac.old_market, vm.id());
  }
  const HostVm* dest = ctx_->pool->GetHost(vm.host());
  if (dest != nullptr) {
    // The trailing EBS/ENI rebinds are part of the evacuation's causal tree.
    const ScopedTraceParent trace_parent(ctx_->tracer, evac.span);
    ctx_->cloud->AttachVolume(vm.root_volume(), dest->instance());
    ctx_->cloud->AssignAddress(vm.address(), dest->instance());
  }
  ctx_->placement->RebindNetwork(vm);
  TraceAttrNum(ctx_->tracer, evac.span, "downtime_s",
               outcome.downtime.seconds());
  TraceAttrNum(ctx_->tracer, evac.span, "degraded_s",
               outcome.degraded.seconds());
  TraceEnd(ctx_->tracer, evac.span, ctx_->Now());
}

}  // namespace spotcheck
