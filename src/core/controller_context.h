// Shared wiring for the controller's layered components.
//
// The SpotCheck controller is five cohesive components -- HostPoolManager,
// PlacementEngine, EvacuationCoordinator, MarketWatcher and
// RepatriationScheduler -- behind a thin SpotCheckController facade. They
// collaborate through this context instead of through each other's
// constructors, which keeps every component independently constructible
// (unit tests build just the subset they exercise) and keeps the facade in
// charge of ownership.
//
// Contract:
//   * The facade (or a test) owns everything the context points to and
//     guarantees it outlives every component.
//   * Platform handles (sim/cloud/markets/config) and the facade-owned
//     bookkeeping (logs, engine, backup pool, network planes, VM table) are
//     set before any component is constructed.
//   * Component pointers are wired immediately after each component is
//     constructed and never reseated. Components must not call each other
//     from their constructors.
//   * `metrics`, and in component tests any component pointer a code path
//     does not reach, may be null.

#ifndef SRC_CORE_CONTROLLER_CONTEXT_H_
#define SRC_CORE_CONTROLLER_CONTEXT_H_

#include "src/common/fleet_store.h"
#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/market/instance_types.h"
#include "src/virt/nested_vm.h"

namespace spotcheck {

class Simulator;
class NativeCloud;
class MarketPlace;
struct ControllerConfig;
class EventCostProfiler;
class MetricsRegistry;
class SpanTracer;
class ActivityLog;
class ControllerEventLog;
class MigrationEngine;
class BackupPool;
class RevocationStormTracker;
class VirtualPrivateCloud;
class HostNetworkPlane;
class ConnectionTracker;
class HostPoolManager;
class PlacementEngine;
class EvacuationCoordinator;
class MarketWatcher;
class RepatriationScheduler;
class BidStrategy;

struct ControllerContext {
  // Platform handles (caller-owned).
  Simulator* sim = nullptr;
  NativeCloud* cloud = nullptr;
  MarketPlace* markets = nullptr;
  const ControllerConfig* config = nullptr;
  MetricsRegistry* metrics = nullptr;  // nullable
  SpanTracer* tracer = nullptr;        // nullable
  // Sampled event-cost profiler (nullable): index-churn hook sites in the
  // pool record per-market set traffic through it. Wall-clock reads only,
  // never sim state -- results are bit-identical with or without it.
  EventCostProfiler* profiler = nullptr;
  // The resolved bidding strategy (facade-owned, set before any component is
  // constructed): every bid the components place and every proactive-window
  // decision goes through it.
  BidStrategy* bid = nullptr;

  // Facade-owned bookkeeping shared by every component.
  ActivityLog* activity_log = nullptr;
  ControllerEventLog* event_log = nullptr;
  MigrationEngine* engine = nullptr;
  BackupPool* backup_pool = nullptr;
  RevocationStormTracker* storms = nullptr;
  VirtualPrivateCloud* vpc = nullptr;
  HostNetworkPlane* network = nullptr;
  ConnectionTracker* connections = nullptr;
  // Fleet-scale VM table: arena-stored records with stable references (the
  // components capture NestedVm& in event lambdas) and O(1) id lookups.
  FleetTable<NestedVmTag, NestedVm>* vms = nullptr;

  // The components, wired by the facade right after construction.
  HostPoolManager* pool = nullptr;
  PlacementEngine* placement = nullptr;
  EvacuationCoordinator* evacuation = nullptr;
  MarketWatcher* market_watcher = nullptr;
  RepatriationScheduler* repatriation = nullptr;

  SimTime Now() const;
  // Null when the VM is unknown (FindVm) or unknown/dead (FindAliveVm).
  NestedVm* FindVm(NestedVmId id) const;
  NestedVm* FindAliveVm(NestedVmId id) const;
  // First zone (from config.zone, spanning num_zones) the platform can still
  // launch into; falls back to the primary zone when all are down.
  AvailabilityZone PickAvailableZone() const;
  // The customers' market in the primary zone (event-log default).
  MarketKey DefaultMarket() const;
  // Where emergency on-demand capacity is requested: the customers' type in
  // the first available zone.
  MarketKey FallbackOnDemandMarket() const;
  // Market of `host` when its record exists, else DefaultMarket().
  MarketKey MarketOfOrDefault(InstanceId host) const;
};

}  // namespace spotcheck

#endif  // SRC_CORE_CONTROLLER_CONTEXT_H_
