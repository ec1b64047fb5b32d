// Configuration for the SpotCheck controller and its components.
//
// Split out of controller.h so the layered components (host_pool, placement,
// evacuation, repatriation) can depend on the configuration surface without
// pulling in the facade.

#ifndef SRC_CORE_CONTROLLER_CONFIG_H_
#define SRC_CORE_CONTROLLER_CONFIG_H_

#include <cstdint>
#include <optional>

#include "src/backup/backup_pool.h"
#include "src/market/instance_types.h"
#include "src/market/revocation_predictor.h"
#include "src/obs/metrics.h"
#include "src/policy/policy_spec.h"
#include "src/virt/migration_engine.h"
#include "src/workload/workload_model.h"

namespace spotcheck {

class EventCostProfiler;

struct ControllerConfig {
  MigrationMechanism mechanism = MigrationMechanism::kSpotCheckLazyRestore;
  // The bidding and pool-selection strategies (DESIGN.md section 15), which
  // the controller instantiates through the PolicyRegistry. nullopt means
  // PolicySpec{}: bid=on-demand,map=1p-m, the paper's defaults. Specs from
  // user input should come through PolicySpec::Parse so they are
  // registry-validated.
  std::optional<PolicySpec> policy_spec;
  // The server type customers request (the paper's default: the smallest
  // HVM-capable type).
  InstanceType nested_type = InstanceType::kM3Medium;
  WorkloadProfile workload = TpcwProfile();
  AvailabilityZone zone{0};
  // Pools are spread across this many zones starting at `zone` (Section 4.2:
  // policies operate across types and availability zones within a region).
  int num_zones = 1;
  // Allocation dynamics: migrate back to spot when the price spike abates.
  bool enable_repatriation = true;
  // Proactive live migration off spot before revocation (requires k>1 bids).
  bool enable_proactive = false;
  // Predictive migration (Section 3.2): drain a pool with live migrations as
  // soon as its price level/velocity signals an imminent spike -- even
  // before the price crosses the on-demand level. False alarms cost a round
  // trip of live migrations; hits avoid the bounded-time downtime entirely.
  bool enable_predictive = false;
  PredictorConfig predictor;
  // Idle on-demand hosts kept ready to absorb revocation storms.
  int hot_spares = 0;
  // On a revocation, park evacuated VMs on under-utilized spot hosts in
  // other, currently-stable pools while the real destination launches
  // (Section 4.3's staging-server alternative to hot spares). Costs nothing
  // when idle, but doubles the number of migrations per revocation.
  bool use_staging = false;
  BackupPoolConfig backup;
  MigrationEngineConfig engine;
  // What SpotCheck charges its customers, as a fraction of the equivalent
  // on-demand price. The derivative cloud's margin is this revenue minus its
  // own spot/on-demand/backup spend; downtime is not billed.
  double resale_fraction_of_on_demand = 0.6;
  uint64_t seed = 7;
  // Whether the controller appends to its structured event timeline.
  // Observational only (reports/CSVs, never control flow); fleet-scale
  // benchmarks turn it off so a million placements do not accumulate an
  // unbounded event vector.
  bool collect_event_log = true;
  // Optional observability registry. Shared with the MigrationEngine and
  // BackupPool the controller owns; must outlive the controller. Purely
  // observational: simulation results are identical with or without it.
  MetricsRegistry* metrics = nullptr;
  // Optional span tracer, under the same contract: shared with the owned
  // MigrationEngine/BackupPool, must outlive the controller, and never
  // affects simulation results.
  SpanTracer* tracer = nullptr;
  // Optional event-cost profiler, same contract again: nullable, outlives
  // the controller, purely observational (wall-clock reads only). Records
  // per-market index churn in the host pool.
  EventCostProfiler* profiler = nullptr;
};

}  // namespace spotcheck

#endif  // SRC_CORE_CONTROLLER_CONFIG_H_
