// Host pool management: the controller component that owns every running
// and pending host, hot spares, and the indexes behind placement lookups.
//
// The pool keeps three per-MarketKey indexes of spot hosts so the
// placement hot path never scans the whole fleet. Only spot hosts are
// indexed: placement and repatriation look for room on spot hosts, while
// on-demand hosts are filled by the waiters they were launched for.
//
//   * the capacity index: the InstanceIds of every spot host of a market,
//     ordered by id. Because InstanceIds are allocated monotonically at
//     acquisition, id order IS acquisition order -- and, critically, it
//     equals the iteration order of the old whole-fleet std::map scan, so
//     FindHostWithCapacity selects bit-identically to the pre-index
//     controller. (A readiness-ordered list would NOT: launch latencies
//     reorder readiness relative to acquisition.)
//
//   * the placeable sub-index: the subset of the capacity index with at
//     least one standard nested slot free, kept in sync by a
//     HostOccupancyListener hook on every AddVm/RemoveVm. The placement hot
//     path walks this subset, so a market full of packed hosts costs O(1)
//     instead of O(hosts of the market). Exact for specs at least one slot
//     large (the common case: every acceptable host is in the subset,
//     re-checked with CanHost in the same id order); smaller bespoke specs
//     fall back to the full capacity index.
//
//   * the joinable index: non-hot-spare spot launches per market that still
//     have a free nested slot, so QueueOrAcquireSpot joins an in-flight
//     host (the slicing arbitrage) in O(log n) instead of scanning every
//     pending acquisition. Waiters never leave a pending host before it
//     resolves, so fullness is monotone and the index's minimum id is
//     exactly the host the old first-with-room scan picked.
//
// Hot spares are on-demand hosts, so no index holds them; promoting one
// only takes it out of the reserve.
//
// Aggregate accounting (host count, fleet capacity/used MB, queued
// waiters) is maintained incrementally at the same mutation sites and
// cross-checked against full scans by ValidateInvariants.
//
// Host readiness fans out to the other components by waiter intent: initial
// placements to the PlacementEngine, evacuation destinations to the
// EvacuationCoordinator, planned moves to the RepatriationScheduler.

#ifndef SRC_CORE_HOST_POOL_H_
#define SRC_CORE_HOST_POOL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/fleet_store.h"
#include "src/common/ids.h"
#include "src/core/controller_context.h"
#include "src/market/instance_types.h"
#include "src/obs/trace.h"
#include "src/virt/host_vm.h"
#include "src/virt/vm_spec.h"

namespace spotcheck {

class TimeSeriesRecorder;

// Why a VM is waiting for a host to come up.
enum class WaitIntent : uint8_t {
  kInitialPlacement,       // fresh VM, first host
  kEvacuationDestination,  // destination of an in-flight evacuation
  kPlannedMove,            // live-migration target (repatriation/proactive)
};

struct Waiter {
  NestedVmId vm;
  WaitIntent intent = WaitIntent::kInitialPlacement;
};

class HostPoolManager : public HostOccupancyListener {
 public:
  explicit HostPoolManager(ControllerContext* ctx) : ctx_(ctx) {}

  HostPoolManager(const HostPoolManager&) = delete;
  HostPoolManager& operator=(const HostPoolManager&) = delete;

  // --- Host table ---------------------------------------------------------

  size_t num_hosts() const { return hosts_.size(); }
  const HostVm* GetHost(InstanceId instance) const;
  HostVm* GetMutableHost(InstanceId instance);
  std::vector<const HostVm*> Hosts() const;
  // Id-ordered scan over every host record, hot spares included; for cold
  // paths that genuinely need the whole fleet (state dump, staging search).
  // fn takes (const) HostVm&. No acquisition/release while iterating.
  template <typename Fn>
  void ForEachHost(Fn&& fn) const {
    hosts_.ForEach([&](InstanceId, const HostVm& host) { fn(host); });
  }
  template <typename Fn>
  void ForEachHost(Fn&& fn) {
    hosts_.ForEach([&](InstanceId, HostVm& host) { fn(host); });
  }

  // --- Placement lookups --------------------------------------------------

  // First spot host of `market` that can take `spec`, in acquisition
  // order; skips non-running natives. O(hosts of that one market), not
  // O(all hosts).
  HostVm* FindHostWithCapacity(const MarketKey& market,
                               const NestedVmSpec& spec);
  // Spot hosts of `market` in acquisition order (snapshot; callers mutate
  // residency while iterating).
  std::vector<InstanceId> SpotHostsIn(const MarketKey& market) const;

  // --- Acquisition --------------------------------------------------------

  // Requests a fresh native instance; `first_waiter` (when valid) is placed
  // on it once it is up.
  void AcquireHost(MarketKey market, bool is_spot, Waiter first_waiter,
                   bool hot_spare = false);
  // Joins an already-launching spot host in `market` when it has a free
  // nested slot (the slicing arbitrage), otherwise requests a new one.
  void QueueOrAcquireSpot(const MarketKey& market, Waiter waiter);

  // --- Lifecycle ----------------------------------------------------------

  // Terminates and forgets `instance` once it is empty (hot spares stay up).
  void MaybeReleaseHost(InstanceId instance);
  // Tops pending + ready hot spares back up to config.hot_spares.
  void ReplenishHotSpares();

  // --- Hot spares ---------------------------------------------------------

  bool IsHotSpare(InstanceId instance) const {
    return hot_spare_set_.contains(instance);
  }
  // Readiness-ordered, as spare selection has always been.
  const std::vector<InstanceId>& hot_spare_hosts() const {
    return hot_spare_order_;
  }
  // Turns a spare into a regular on-demand host; returns the host, or null
  // when unknown.
  HostVm* PromoteHotSpare(InstanceId instance);

  // --- Introspection ------------------------------------------------------

  size_t num_pending_hosts() const { return pending_hosts_.size(); }
  int num_pending_hot_spares() const { return pending_hot_spares_; }
  // O(1) fleet aggregates, maintained at every mutation site and
  // cross-checked against full scans by ValidateInvariants.
  double total_capacity_mb() const { return total_capacity_mb_; }
  double total_used_mb() const { return total_used_mb_; }
  size_t num_waiting_vms() const { return num_waiting_vms_; }
  // The "-- hosts --" section of the controller state dump.
  std::string DumpHosts() const;
  // Capacity accounting, dead-resident, and index-consistency checks.
  bool ValidateInvariants(std::string* error) const;
  // Registers the pool's fleet/index-shape gauges (host counts, capacity,
  // waitlist depth, per-market index entry totals) on `ts`. Samplers read
  // pool state only; the recorder must outlive the pool's last sample.
  void RegisterTelemetry(TimeSeriesRecorder& ts);

 private:
  struct PendingHost {
    MarketKey market;
    bool is_spot = true;
    bool is_hot_spare = false;
    std::deque<Waiter> waiting;  // VMs to place when the host is up
    // Open "pool.acquire" span covering request -> ready/failed (0 when
    // tracing is off).
    SpanId span = 0;
  };

  void OnHostReady(InstanceId instance, bool ok);
  // HostOccupancyListener: keeps total_used_mb_ and the placeable
  // sub-index in step with every AddVm/RemoveVm on a pooled host.
  void OnHostOccupancyChanged(HostVm& host, double used_delta_mb) override;
  // Memory of one standard nested slot (config.nested_type); the placeable
  // sub-index admits hosts with at least this much free.
  double PlaceableThresholdMb() const;
  // Recomputes `host`'s membership in the placeable sub-index (in iff a
  // spot host with a standard slot free).
  void RefreshPlaceable(const HostVm& host);
  int SpotSlots(const MarketKey& market) const;

  ControllerContext* ctx_;
  // Fleet-scale host storage: arena records (stable for the HostVm&
  // handed to the components), O(1) id lookups, id-order iteration.
  FleetTable<InstanceTag, HostVm> hosts_;
  std::map<InstanceId, PendingHost> pending_hosts_;
  // Per-market spot host indexes (see file comment).
  std::map<MarketKey, std::set<InstanceId>> spot_index_;
  // The placeable subset of spot_index_ (standard slot free).
  std::map<MarketKey, std::set<InstanceId>> placeable_spot_index_;
  // Pending non-hot-spare spot launches with a free nested slot to join.
  std::map<MarketKey, std::set<InstanceId>> joinable_spot_index_;
  // Hot spares: readiness-ordered pick list + O(log n) membership.
  std::vector<InstanceId> hot_spare_order_;
  std::set<InstanceId> hot_spare_set_;
  int pending_hot_spares_ = 0;
  // O(1) aggregates (see accessors above).
  double total_capacity_mb_ = 0.0;
  double total_used_mb_ = 0.0;
  size_t num_waiting_vms_ = 0;
  mutable double placeable_threshold_mb_ = -1.0;  // lazy; config-immutable
};

}  // namespace spotcheck

#endif  // SRC_CORE_HOST_POOL_H_
