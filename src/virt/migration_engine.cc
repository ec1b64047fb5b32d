#include "src/virt/migration_engine.h"

#include <algorithm>

#include "src/common/log.h"

namespace spotcheck {

std::string_view MigrationMechanismName(MigrationMechanism mechanism) {
  switch (mechanism) {
    case MigrationMechanism::kXenLiveMigration:
      return "xen-live-migration";
    case MigrationMechanism::kYankFullRestore:
      return "unoptimized-full-restore";
    case MigrationMechanism::kSpotCheckFullRestore:
      return "spotcheck-full-restore";
    case MigrationMechanism::kUnoptimizedLazyRestore:
      return "unoptimized-lazy-restore";
    case MigrationMechanism::kSpotCheckLazyRestore:
      return "spotcheck-lazy-restore";
  }
  return "unknown";
}

bool MechanismUsesLazyRestore(MigrationMechanism mechanism) {
  return mechanism == MigrationMechanism::kUnoptimizedLazyRestore ||
         mechanism == MigrationMechanism::kSpotCheckLazyRestore;
}

bool MechanismIsOptimized(MigrationMechanism mechanism) {
  return mechanism == MigrationMechanism::kSpotCheckFullRestore ||
         mechanism == MigrationMechanism::kSpotCheckLazyRestore;
}

bool MechanismNeedsBackup(MigrationMechanism mechanism) {
  return mechanism != MigrationMechanism::kXenLiveMigration;
}

MigrationEngine::MigrationEngine(Simulator* sim, ActivityLog* log,
                                 MigrationEngineConfig config,
                                 MetricsRegistry* metrics, SpanTracer* tracer)
    : sim_(sim), log_(log), config_(config), tracer_(tracer) {
  if (metrics != nullptr) {
    live_migrations_metric_ = &metrics->Counter("virt.live_migrations");
    evacuations_metric_ = &metrics->Counter("virt.evacuations");
    failed_migrations_metric_ = &metrics->Counter("virt.failed_migrations");
    crash_recoveries_metric_ = &metrics->Counter("virt.crash_recoveries");
    restore_bytes_mb_metric_ = &metrics->Counter("virt.restore_bytes_mb");
    // Restores span milliseconds (optimized lazy) to minutes (thrashing
    // full restores of large VMs).
    restore_duration_metric_ =
        &metrics->Histogram("virt.restore_duration_s", 0.0, 300.0, 60);
    downtime_metric_ =
        &metrics->Histogram("virt.evacuation_downtime_s", 0.0, 300.0, 60);
  }
}

TraceTrackId MigrationEngine::VmTrack(const NestedVm& vm) {
  return tracer_ != nullptr ? tracer_->Track("vm/" + vm.id().ToString()) : 0;
}

void MigrationEngine::LiveMigrate(NestedVm& vm, MigrationDoneCallback done) {
  PreCopyParams params;
  params.memory_mb = vm.spec().memory_mb;
  params.dirty_rate_mbps = vm.spec().dirty_rate_mbps;
  params.bandwidth_mbps = config_.link_mbps;
  const PreCopyPlan plan = PlanPreCopy(params);

  vm.set_state(NestedVmState::kMigrating);
  const SimTime start = sim_->Now();
  const SimTime pause_start = start + plan.total - plan.downtime;
  const SimTime resume_at = start + plan.total;
  log_->Record(vm.id(), pause_start, resume_at, ActivityKind::kDowntime);
  if (tracer_ != nullptr) {
    // The whole pre-copy timeline is known up front; record it eagerly.
    const TraceTrackId track = VmTrack(vm);
    const SpanId live =
        tracer_->AddSpan(start, resume_at, "migrate.live", "virt", track);
    tracer_->AttrNum(live, "rounds", static_cast<double>(plan.rounds));
    tracer_->AddSpan(start, pause_start, "migrate.precopy", "virt", track,
                     live);
    tracer_->AddSpan(pause_start, resume_at, "migrate.stop_and_copy", "virt",
                     track, live);
  }

  sim_->ScheduleAt(resume_at, [this, &vm, plan, resume_at, done = std::move(done)]() {
    vm.set_state(NestedVmState::kRunning);
    vm.count_migration();
    ++live_migrations_;
    MetricInc(live_migrations_metric_);
    if (done) {
      done(MigrationOutcome{true, plan.downtime, SimDuration::Zero(), resume_at});
    }
  });
}

void MigrationEngine::LiveEvacuate(NestedVm& vm, SimTime deadline,
                                   MigrationDoneCallback done) {
  // Race the pre-copy against the termination. Large or write-heavy VMs lose
  // this race and their memory state with it (Section 3.2).
  const SimTime now = sim_->Now();
  PreCopyParams params;
  params.memory_mb = vm.spec().memory_mb;
  params.dirty_rate_mbps = vm.spec().dirty_rate_mbps;
  params.bandwidth_mbps = config_.link_mbps;
  const PreCopyPlan plan = PlanPreCopy(params);
  if (!FitsWithinWarning(plan, deadline - now)) {
    vm.set_state(NestedVmState::kFailed);
    ++failed_migrations_;
    MetricInc(failed_migrations_metric_);
    log_->MarkDeath(vm.id(), deadline);
    if (tracer_ != nullptr) {
      const SpanId mark = tracer_->Instant(now, "evac.live_race_lost", "virt",
                                           VmTrack(vm));
      tracer_->AttrNum(mark, "precopy_s", plan.total.seconds());
      tracer_->AttrNum(mark, "warning_s", (deadline - now).seconds());
    }
    SPOTCHECK_LOG(kWarning) << "nested VM " << vm.id().ToString()
                            << " lost: live migration (" << plan.total.seconds()
                            << "s) cannot beat the termination deadline";
    if (done) {
      sim_->ScheduleAt(deadline, [done = std::move(done), deadline]() {
        done(MigrationOutcome{false, SimDuration::Zero(), SimDuration::Zero(),
                              deadline});
      });
    }
    return;
  }
  LiveMigrate(vm, std::move(done));
}

void MigrationEngine::BeginEvacuation(NestedVm& vm, MigrationMechanism mechanism,
                                      SimTime deadline,
                                      std::function<void()> on_committed) {
  const SimTime now = sim_->Now();
  BoundedTimeParams bt;
  bt.dirty_rate_mbps = vm.spec().dirty_rate_mbps;
  bt.backup_bandwidth_mbps = config_.link_mbps;
  bt.bound = config_.bound;
  bt.warning = deadline - now;
  const BoundedTimePlan plan = PlanBoundedTime(bt);

  vm.set_state(NestedVmState::kMigrating);
  ++evacuations_;
  MetricInc(evacuations_metric_);

  SimTime pause_start;
  SimDuration commit;
  if (MechanismIsOptimized(mechanism)) {
    // Ramp the checkpoint frequency while the VM keeps running (degraded
    // through the warning period), pausing only for a millisecond-scale
    // final commit just before the deadline.
    commit = plan.optimized_commit_downtime;
    pause_start = std::max(now, deadline - commit);
    if (pause_start > now) {
      log_->Record(vm.id(), now, pause_start, ActivityKind::kDegraded);
    }
  } else {
    // Yank: pause immediately on the warning and commit the full stale set.
    commit = plan.unoptimized_commit_downtime;
    pause_start = now;
  }
  pause_start_.FindOrEmplace(vm.id()) = pause_start;

  const SimTime commit_done = std::min(pause_start + commit, deadline);
  if (tracer_ != nullptr) {
    const TraceTrackId track = VmTrack(vm);
    if (pause_start > now) {
      const SpanId ramp =
          tracer_->AddSpan(now, pause_start, "evac.commit_ramp", "virt", track);
      tracer_->AttrNum(ramp, "stale_threshold_mb", plan.stale_threshold_mb);
    }
    tracer_->AddSpan(pause_start, commit_done, "evac.commit", "virt", track);
  }
  sim_->ScheduleAt(commit_done, [on_committed = std::move(on_committed)]() {
    if (on_committed) {
      on_committed();
    }
  });
}

void MigrationEngine::BeginCrashRecovery(NestedVm& vm, SimTime failed_at) {
  vm.set_state(NestedVmState::kMigrating);
  pause_start_.FindOrEmplace(vm.id()) = failed_at;
  ++crash_recoveries_;
  MetricInc(crash_recoveries_metric_);
  if (tracer_ != nullptr) {
    tracer_->Instant(failed_at, "evac.crash_detected", "virt", VmTrack(vm));
  }
}

void MigrationEngine::CompleteEvacuation(NestedVm& vm,
                                         MigrationMechanism mechanism,
                                         const RestoreBandwidthSource* backup_bw,
                                         int concurrent,
                                         MigrationDoneCallback done) {
  concurrent = std::max(concurrent, 1);
  const SimTime* paused_at = pause_start_.Find(vm.id());
  const SimTime pause_start = paused_at != nullptr ? *paused_at : sim_->Now();
  pause_start_.Erase(vm.id());

  const RestoreKind kind = MechanismUsesLazyRestore(mechanism) ? RestoreKind::kLazy
                                                               : RestoreKind::kFull;
  const bool optimized = MechanismIsOptimized(mechanism);
  RestoreParams restore;
  restore.kind = kind;
  restore.memory_mb = vm.spec().memory_mb;
  restore.skeleton_mb = config_.skeleton_mb;
  restore.bandwidth_mbps = backup_bw != nullptr
                               ? backup_bw->PerVmRestoreBandwidth(kind, optimized,
                                                                  concurrent)
                               : config_.link_mbps;
  const RestoreOutcome outcome = ComputeRestore(restore);

  const SimTime resume_at =
      sim_->Now() + config_.ec2_ops_downtime + outcome.downtime;
  const SimDuration lazy_degraded = outcome.degraded;
  if (tracer_ != nullptr) {
    // Phase 2's timeline is computed synchronously: EC2 EBS/ENI moves, then
    // the restore, then (lazy only) the demand-paging window.
    const TraceTrackId track = VmTrack(vm);
    const SimTime ec2_done = sim_->Now() + config_.ec2_ops_downtime;
    tracer_->AddSpan(sim_->Now(), ec2_done, "evac.ec2_ops", "virt", track);
    const SpanId restore_span = tracer_->AddSpan(
        ec2_done, resume_at,
        kind == RestoreKind::kLazy ? "evac.restore_lazy" : "evac.restore_full",
        "virt", track);
    tracer_->AttrNum(restore_span, "concurrent", concurrent);
    tracer_->AttrNum(restore_span, "bandwidth_mbps", restore.bandwidth_mbps);
    if (lazy_degraded > SimDuration::Zero()) {
      tracer_->AddSpan(resume_at, resume_at + lazy_degraded,
                       "evac.lazy_paging", "virt", track);
    }
  }
  log_->Record(vm.id(), pause_start, resume_at, ActivityKind::kDowntime);
  if (lazy_degraded > SimDuration::Zero()) {
    log_->Record(vm.id(), resume_at, resume_at + lazy_degraded,
                 ActivityKind::kDegraded);
  }
  const SimDuration downtime = resume_at - pause_start;
  // Full restores pull the whole image up front; lazy restores page the same
  // total in over the degraded window, so either way the backup server moves
  // the full memory image (plus the skeleton for lazy).
  MetricInc(restore_bytes_mb_metric_,
            static_cast<int64_t>(vm.spec().memory_mb +
                                 (kind == RestoreKind::kLazy ? config_.skeleton_mb
                                                             : 0.0)));
  MetricObserve(restore_duration_metric_,
                (config_.ec2_ops_downtime + outcome.downtime).seconds());
  MetricObserve(downtime_metric_, downtime.seconds());
  sim_->ScheduleAt(
      resume_at,
      [this, &vm, downtime, lazy_degraded, resume_at, done = std::move(done)]() {
        vm.count_migration();
        if (lazy_degraded > SimDuration::Zero()) {
          vm.set_state(NestedVmState::kDegraded);
          sim_->ScheduleAfter(lazy_degraded, [&vm]() {
            if (vm.state() == NestedVmState::kDegraded) {
              vm.set_state(NestedVmState::kRunning);
            }
          });
        } else {
          vm.set_state(NestedVmState::kRunning);
        }
        if (done) {
          done(MigrationOutcome{true, downtime, lazy_degraded, resume_at});
        }
      });
}

}  // namespace spotcheck
