// Evacuation: the revocation-warning / platform-failure state machine.
//
// On a spot revocation warning every resident nested VM is evacuated via
// the configured migration mechanism; on an unwarned platform failure VMs
// recover from their last checkpoint (or are lost, for live-migration-only
// VMs with no backup). An evacuation completes in two asynchronous halves
// -- the phase-1 state commit and destination readiness -- tracked per VM
// until FinalizeEvacuation settles residency, billing hooks, and network
// rebinding.

#ifndef SRC_CORE_EVACUATION_H_
#define SRC_CORE_EVACUATION_H_

#include <cstdint>

#include "src/common/fleet_store.h"
#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/core/controller_context.h"
#include "src/market/instance_types.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/virt/host_vm.h"
#include "src/virt/migration_engine.h"
#include "src/virt/nested_vm.h"

namespace spotcheck {

class BackupServer;

class EvacuationCoordinator {
 public:
  explicit EvacuationCoordinator(ControllerContext* ctx);

  EvacuationCoordinator(const EvacuationCoordinator&) = delete;
  EvacuationCoordinator& operator=(const EvacuationCoordinator&) = delete;

  // Native-cloud handlers (wired by the facade).
  void OnRevocationWarning(InstanceId instance, SimTime deadline);
  // Platform (zone) failure: the instance died with no warning.
  void OnInstanceFailure(InstanceId instance);

  void EvacuateVm(NestedVm& vm, SimTime deadline);
  void RespawnStateless(NestedVm& vm, SimTime deadline);
  // A destination host reserved for this VM's evacuation is up.
  void OnDestinationHostReady(NestedVm& vm, HostVm& host);

  // A VM whose evacuation record is still open may transiently violate
  // residency invariants (e.g. a failed VM lingering on its host).
  bool IsEvacuating(NestedVmId vm) const { return evacuating_.Contains(vm); }

  int64_t revocation_events() const { return revocation_events_; }
  int64_t stateless_respawns() const { return stateless_respawns_; }
  int64_t stagings() const { return stagings_; }
  // VMs whose state was unrecoverable after a platform failure (no backup).
  int64_t vms_lost() const { return vms_lost_; }

 private:
  // Evacuation in flight: phase-1 commit and destination readiness must both
  // land before phase 2 (EC2 ops + restore) can run.
  struct EvacuationState {
    MigrationMechanism mechanism;
    BackupServer* backup = nullptr;
    MarketKey old_market;
    InstanceId old_host;
    SimTime deadline;
    bool committed = false;
    bool dest_ready = false;
    bool completing = false;
    // Destination is a staging host in another spot pool; a second (live)
    // migration to a final host follows once one launches.
    bool staged = false;
    MarketKey staging_market;
    // Tracing (all 0 when tracing is off): the evacuation's root span on the
    // VM's track, the open wait-for-destination child, and the backup
    // server's restore-hold span (BeginRestore -> EndRestore).
    SpanId span = 0;
    SpanId wait_span = 0;
    SpanId restore_hold_span = 0;
  };

  void MaybeCompleteEvacuation(NestedVm& vm);
  void FinalizeEvacuation(NestedVm& vm, const MigrationOutcome& outcome);

  ControllerContext* ctx_;
  // Open evacuation records by VM id. An evacuation that starts while one
  // is open reuses its record (std::map::operator[] semantics).
  FleetTable<NestedVmTag, EvacuationState> evacuating_;

  int64_t revocation_events_ = 0;
  int64_t stateless_respawns_ = 0;
  int64_t stagings_ = 0;
  int64_t vms_lost_ = 0;

  // Observability instruments; all null without a registry.
  MetricCounter* revocation_events_metric_ = nullptr;
  MetricCounter* stateless_respawns_metric_ = nullptr;
  MetricCounter* stagings_metric_ = nullptr;
  MetricCounter* vms_lost_metric_ = nullptr;
  MetricCounter* backup_restores_metric_ = nullptr;
  // Completed evacuations, named after the configured mechanism
  // ("controller.migrations.<mechanism>") so grid-wide reports keep a
  // per-mechanism breakdown.
  MetricCounter* migrations_by_mechanism_metric_ = nullptr;
};

}  // namespace spotcheck

#endif  // SRC_CORE_EVACUATION_H_
