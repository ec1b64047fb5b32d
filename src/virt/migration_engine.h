// Migration engine: executes Section 3's migration strategies on the
// simulation clock and charges the resulting downtime / degradation to the
// ActivityLog.
//
// Two entry points:
//   * LiveMigrate: planned pre-copy live migration (e.g. moving a nested VM
//     from an on-demand host back to a cheaper spot host). No deadline.
//   * EvacuateOnWarning: a spot host received its termination notice; the
//     resident nested VM must reach a destination before the deadline, using
//     one of the mechanism variants the evaluation compares.
//
// Timing model for an evacuation (bounded-time mechanisms):
//
//   warning ----[ramp: degraded]----> pause --[commit]--> EC2 ops --[restore]--> resume
//                                      |<------------- downtime ------------->|
//                                                              (+ lazy-restore degraded window)
//
// EC2 ops are the EBS detach/attach + ENI detach/attach SpotCheck must issue
// around the pause (Table 1; 22.65 s on average). Following the paper's
// accounting, the idealized Xen-live baseline is charged only its
// stop-and-copy downtime.

#ifndef SRC_VIRT_MIGRATION_ENGINE_H_
#define SRC_VIRT_MIGRATION_ENGINE_H_

#include <cstdint>
#include <functional>
#include <string_view>

#include "src/common/fleet_store.h"
#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/virt/activity_log.h"
#include "src/virt/migration_models.h"
#include "src/virt/nested_vm.h"
#include "src/virt/restore_bandwidth.h"

namespace spotcheck {

// The five mechanism variants compared in Section 6.
enum class MigrationMechanism : uint8_t {
  kXenLiveMigration,        // pre-copy only; loses the VM if it cannot finish
  kYankFullRestore,         // unoptimized bounded-time + full restore
  kSpotCheckFullRestore,    // ramped commit + optimized full restore
  kUnoptimizedLazyRestore,  // unoptimized bounded-time + unoptimized lazy
  kSpotCheckLazyRestore,    // ramped commit + optimized lazy (the default)
};

std::string_view MigrationMechanismName(MigrationMechanism mechanism);
bool MechanismUsesLazyRestore(MigrationMechanism mechanism);
bool MechanismIsOptimized(MigrationMechanism mechanism);
// All bounded-time variants need a backup server; Xen-live does not.
bool MechanismNeedsBackup(MigrationMechanism mechanism);

struct MigrationEngineConfig {
  SimDuration bound = SimDuration::Seconds(30);
  // Host-to-host / host-to-backup link (1 Gbps typical within a zone).
  double link_mbps = 125.0;
  double skeleton_mb = 5.0;
  // EBS + ENI operation downtime per migration (Table 1 means: 22.65 s).
  SimDuration ec2_ops_downtime = SimDuration::Seconds(22.65);
};

struct MigrationOutcome {
  bool success = false;
  SimDuration downtime;
  SimDuration degraded;
  SimTime completed_at;
};

using MigrationDoneCallback = std::function<void(const MigrationOutcome&)>;

class MigrationEngine {
 public:
  // `metrics` (optional) registers the virt.* counters and the
  // restore-duration / downtime histograms; `tracer` (optional) records the
  // per-phase spans (pre-copy, stop-and-copy, commit ramp, EC2 ops, restore,
  // lazy paging) on each VM's track. Both must outlive the engine.
  MigrationEngine(Simulator* sim, ActivityLog* log, MigrationEngineConfig config = {},
                  MetricsRegistry* metrics = nullptr,
                  SpanTracer* tracer = nullptr);

  const MigrationEngineConfig& config() const { return config_; }

  // Planned pre-copy live migration; completes after the pre-copy rounds and
  // charges only the stop-and-copy downtime. The VM must be alive and the
  // destination host already running.
  void LiveMigrate(NestedVm& vm, MigrationDoneCallback done = {});

  // Live migration racing a termination deadline (the Xen-live baseline's
  // only option on a warning). Call when the destination host is up; fails
  // -- losing the VM -- when the pre-copy cannot finish before `deadline`.
  void LiveEvacuate(NestedVm& vm, SimTime deadline, MigrationDoneCallback done = {});

  // Bounded-time evacuation, phase 1: checkpoint the VM's state so it is
  // fully committed to the backup server before `deadline`.
  //   * optimized mechanisms ramp the checkpoint frequency (degraded
  //     performance from now on) and pause milliseconds before the deadline;
  //   * unoptimized (Yank) pauses immediately and commits up to the full
  //     stale threshold.
  // `on_committed` fires when the state is safe; the VM is paused from
  // pause_start onwards and stays paused until phase 2 resumes it.
  void BeginEvacuation(NestedVm& vm, MigrationMechanism mechanism,
                       SimTime deadline, std::function<void()> on_committed);

  // Phase 2: run once the state is committed AND the destination host is
  // running -- performs the EBS/ENI moves and the (full or lazy) restore.
  // `backup_bw` supplies restore bandwidth; `concurrent` is the number of
  // sibling VMs restoring from the same backup server (>= 1). Downtime is
  // charged from phase 1's pause to the restore's resume.
  void CompleteEvacuation(NestedVm& vm, MigrationMechanism mechanism,
                          const RestoreBandwidthSource* backup_bw, int concurrent,
                          MigrationDoneCallback done = {});

  // Crash recovery: the VM's host died with NO warning (platform failure).
  // The backup server still holds its state as of the last checkpoint (at
  // most the stale threshold behind -- the only case where execution rolls
  // back). Marks the VM down from `failed_at`; CompleteEvacuation resumes it
  // once a destination is up.
  void BeginCrashRecovery(NestedVm& vm, SimTime failed_at);
  int64_t crash_recoveries() const { return crash_recoveries_; }

  int64_t live_migrations() const { return live_migrations_; }
  int64_t evacuations() const { return evacuations_; }
  int64_t failed_migrations() const { return failed_migrations_; }

 private:
  // Interns the VM's "vm/<id>" track; 0 when tracing is off.
  TraceTrackId VmTrack(const NestedVm& vm);

  Simulator* sim_;
  ActivityLog* log_;
  MigrationEngineConfig config_;
  SpanTracer* tracer_ = nullptr;
  // Pause instants of evacuations between phase 1 and phase 2.
  FleetTable<NestedVmTag, SimTime> pause_start_;
  int64_t live_migrations_ = 0;
  int64_t evacuations_ = 0;
  int64_t failed_migrations_ = 0;
  int64_t crash_recoveries_ = 0;

  // Observability instruments; all null without a registry.
  MetricCounter* live_migrations_metric_ = nullptr;
  MetricCounter* evacuations_metric_ = nullptr;
  MetricCounter* failed_migrations_metric_ = nullptr;
  MetricCounter* crash_recoveries_metric_ = nullptr;
  MetricCounter* restore_bytes_mb_metric_ = nullptr;
  MetricHistogram* restore_duration_metric_ = nullptr;
  MetricHistogram* downtime_metric_ = nullptr;
};

}  // namespace spotcheck

#endif  // SRC_VIRT_MIGRATION_ENGINE_H_
