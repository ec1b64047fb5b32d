// SpotCheck controller (Section 5) -- the derivative cloud's main component
// and the primary public API of this library.
//
// The controller exposes an EC2-like interface to customers (request /
// release servers) while internally renting spot and on-demand instances
// from the native cloud, running nested VMs on them, and orchestrating:
//
//   * placement: the customer-to-pool mapping policies of Table 2, with
//     large-instance slicing (multiple nested VMs per host),
//   * backup assignment: round-robin over a pool of backup servers for every
//     nested VM hosted on a spot server,
//   * revocation handling: on a spot warning, evacuate every resident nested
//     VM via the configured migration mechanism to a hot spare or a freshly
//     requested on-demand server,
//   * allocation dynamics: when the spot price falls back below the
//     on-demand price, live-migrate VMs from on-demand servers back to spot,
//   * proactive migration (with k>1 bids): when the price rises above the
//     on-demand price but below the bid, live-migrate off the spot server
//     before any revocation happens.
//
// All downtime and degradation is charged to an ActivityLog, revocation
// batches to a RevocationStormTracker, and every dollar to the native
// cloud's billing meter plus the backup pool's accrual -- which is exactly
// the data needed to regenerate Figures 10-12 and Table 3.
//
// Since the layered refactor this class is a thin facade: the actual
// machinery lives in five components (HostPoolManager, PlacementEngine,
// EvacuationCoordinator, MarketWatcher, RepatriationScheduler) that share a
// ControllerContext. See controller_context.h for the wiring contract and
// DESIGN.md section 10 for the architecture.

#ifndef SRC_CORE_CONTROLLER_H_
#define SRC_CORE_CONTROLLER_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/backup/backup_pool.h"
#include "src/cloud/native_cloud.h"
#include "src/common/fleet_store.h"
#include "src/core/controller_config.h"
#include "src/core/controller_context.h"
#include "src/core/evacuation.h"
#include "src/core/event_log.h"
#include "src/core/host_pool.h"
#include "src/core/placement.h"
#include "src/core/repatriation.h"
#include "src/core/storm_tracker.h"
#include "src/net/vpc.h"
#include "src/policy/policy_spec.h"
#include "src/policy/strategy.h"
#include "src/virt/activity_log.h"
#include "src/virt/host_vm.h"
#include "src/virt/migration_engine.h"
#include "src/virt/nested_vm.h"

namespace spotcheck {

class SpotCheckController {
 public:
  SpotCheckController(Simulator* sim, NativeCloud* cloud, MarketPlace* markets,
                      ControllerConfig config = {});

  SpotCheckController(const SpotCheckController&) = delete;
  SpotCheckController& operator=(const SpotCheckController&) = delete;

  // --- Customer API -------------------------------------------------------

  CustomerId RegisterCustomer(std::string name = {});
  // Requests one non-revocable nested VM of config.nested_type. Provisioning
  // is asynchronous (native instance launch); the VM enters kRunning when a
  // host is ready. Stateless servers (one replica of a fault-tolerant tier)
  // skip the backup server -- cheaper -- and are respawned fresh instead of
  // migrated when revoked (Section 4.2).
  NestedVmId RequestServer(CustomerId customer, bool stateless = false);
  void ReleaseServer(NestedVmId vm);

  const NestedVm* GetVm(NestedVmId vm) const;
  std::vector<const NestedVm*> Vms() const;
  const HostVm* GetHost(InstanceId instance) const {
    return pool_->GetHost(instance);
  }
  std::vector<const HostVm*> Hosts() const { return pool_->Hosts(); }
  int RunningVmCount() const;

  // --- Evaluation surface ---------------------------------------------------

  const ActivityLog& activity_log() const { return activity_log_; }
  const ControllerEventLog& event_log() const { return event_log_; }
  // Mutable access for the run report, which takes the finished timeline.
  ControllerEventLog& mutable_event_log() { return event_log_; }
  const RevocationStormTracker& storms() const { return storms_; }
  const MigrationEngine& engine() const { return engine_; }
  const BackupPool& backup_pool() const { return backup_pool_; }
  // Mutable access for the fault-injection layer (restore-bandwidth
  // degradation); regular evaluation code should use the const accessor.
  BackupPool& mutable_backup_pool() { return backup_pool_; }
  const ControllerConfig& config() const { return config_; }
  // The policy spec this controller runs: config.policy_spec, or
  // PolicySpec{} when that is unset.
  const PolicySpec& policy_spec() const { return policy_spec_; }
  const BidStrategy& bid_strategy() const { return *bid_strategy_; }
  // Network state: each nested VM keeps one stable private address whose
  // NAT binding follows it from host to host (Fig. 4).
  const VirtualPrivateCloud& vpc() const { return vpc_; }

  struct CostReport {
    double native_cost = 0.0;   // spot + on-demand instance spend ($)
    double backup_cost = 0.0;   // backup server spend ($)
    double vm_hours = 0.0;      // nested-VM lifetime
    double avg_cost_per_vm_hour = 0.0;
  };
  CostReport ComputeCostReport() const;

  // What one customer experienced and owes at the resale price.
  struct CustomerReport {
    int64_t vms = 0;
    double vm_hours = 0.0;
    SimDuration downtime;
    double availability_pct = 100.0;
    double revenue = 0.0;  // billed hours x resale price (downtime unbilled)
  };
  CustomerReport ComputeCustomerReport(CustomerId customer) const;

  // The derivative cloud's books: customer revenue vs. platform spend.
  struct BusinessReport {
    double revenue = 0.0;
    double platform_cost = 0.0;  // native instances + backup servers
    double margin = 0.0;         // revenue - platform_cost
    double margin_fraction = 0.0;
  };
  BusinessReport ComputeBusinessReport() const;

  int64_t revocation_events() const { return evacuation_->revocation_events(); }
  int64_t repatriations() const { return repatriation_->repatriations(); }
  int64_t proactive_migrations() const {
    return repatriation_->proactive_migrations();
  }
  int64_t stateless_respawns() const {
    return evacuation_->stateless_respawns();
  }
  int64_t stagings() const { return evacuation_->stagings(); }
  // VMs whose state was unrecoverable after a platform failure (no backup).
  int64_t vms_lost() const { return evacuation_->vms_lost(); }

  // Human-readable snapshot of the controller's state -- the information the
  // paper's controller keeps in its database (Section 5): every nested VM
  // with its placement, address and backup assignment, every host with its
  // occupancy, and the headline counters.
  std::string DumpState() const;

  // Registers the fleet's telemetry gauges on `ts`: per-state VM counts
  // (fleet.vms.<state>) plus the host pool's fleet/index-shape series.
  // Samplers only read controller state; `ts` must outlive the controller's
  // last sample.
  void RegisterTelemetry(TimeSeriesRecorder& ts);

  // Structural invariants, checked by property tests after arbitrary
  // simulated histories: settled (running/degraded) VMs sit on live hosts
  // that list them, host capacity accounting is consistent, backup streams
  // exist exactly for spot-hosted VMs (when the mechanism needs them), and
  // every settled VM's private address routes to it. Returns true when all
  // hold; otherwise false with a description in `error`.
  bool ValidateInvariants(std::string* error) const;

 private:
  Simulator* sim_;
  NativeCloud* cloud_;
  MarketPlace* markets_;
  ControllerConfig config_;
  ActivityLog activity_log_;
  ControllerEventLog event_log_;
  MigrationEngine engine_;
  BackupPool backup_pool_;
  RevocationStormTracker storms_;
  VirtualPrivateCloud vpc_;

  IdGenerator<CustomerTag> customer_ids_;
  IdGenerator<NestedVmTag> vm_ids_;
  std::map<CustomerId, std::string> customers_;
  // Per-state fleet population, maintained by NestedVm::set_state through
  // BindStateCounters: RunningVmCount() is O(1) at any fleet size. Declared
  // before vms_ so it outlives the VMs that point into it; cross-checked
  // against a full scan by ValidateInvariants.
  std::array<int64_t, kNumNestedVmStates> vm_state_counts_{};
  // Fleet-scale VM storage: one arena record per VM (no unique_ptr nodes),
  // stable references for in-flight event lambdas, id-order iteration.
  FleetTable<NestedVmTag, NestedVm> vms_;

  // Resolved policy spec + the bidding strategy every component bids
  // through (declared before ctx_/components so it outlives them).
  PolicySpec policy_spec_;
  std::unique_ptr<BidStrategy> bid_strategy_;

  // Shared wiring + the five components (constructed, in this order, after
  // the context above is fully populated; see controller_context.h).
  ControllerContext ctx_;
  std::unique_ptr<HostPoolManager> pool_;
  std::unique_ptr<PlacementEngine> placement_;
  std::unique_ptr<EvacuationCoordinator> evacuation_;
  std::unique_ptr<MarketWatcher> market_watcher_;
  std::unique_ptr<RepatriationScheduler> repatriation_;
};

}  // namespace spotcheck

#endif  // SRC_CORE_CONTROLLER_H_
