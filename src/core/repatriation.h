// Pool dynamics: price subscriptions and planned (non-forced) migrations.
//
// MarketWatcher subscribes to every spot pool the controller touches and
// turns price changes into decisions: repatriate exiled VMs when a pool's
// price falls back below on-demand, proactively drain a pool whose price
// climbed above on-demand but not yet above the bid (k>1 bidding), and --
// with the predictive option -- drain on a predictor signal before the
// price even crosses on-demand. It declares on each market the prices it
// ignores, so the kernel skips the changes it cannot act on.
//
// RepatriationScheduler owns the machinery those decisions drive: the
// deduplicated per-pool waitlist of exiled VMs (with its vm->pool mirror),
// the pending-move guard that stops double-scheduling, and the planned-move
// completion/failure handlers invoked by the host pool.

#ifndef SRC_CORE_REPATRIATION_H_
#define SRC_CORE_REPATRIATION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/fleet_store.h"
#include "src/common/id_set.h"
#include "src/common/ids.h"
#include "src/core/controller_context.h"
#include "src/market/instance_types.h"
#include "src/market/revocation_predictor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/virt/host_vm.h"
#include "src/virt/nested_vm.h"

namespace spotcheck {

class SpotMarket;

class MarketWatcher {
 public:
  explicit MarketWatcher(ControllerContext* ctx) : ctx_(ctx) {}

  MarketWatcher(const MarketWatcher&) = delete;
  MarketWatcher& operator=(const MarketWatcher&) = delete;

  // Idempotent: the first call per pool installs the price-change callback.
  void Subscribe(const MarketKey& key);
  // Public so pool-dynamics tests can inject price points directly.
  void OnPriceChange(const MarketKey& key, double price);
  // Redeclares the prices at which OnPriceChange is a no-op for `key`; the
  // RepatriationScheduler calls it when `key`'s waitlist may have filled or
  // drained. A no-op for a pool this watcher does not subscribe to.
  void RefreshQuietBand(const MarketKey& key);

  bool IsSubscribed(const MarketKey& key) const {
    return subscriptions_.contains(key);
  }

 private:
  struct Subscription {
    SpotMarket* market;
    size_t listener;
  };

  ControllerContext* ctx_;
  std::map<MarketKey, Subscription> subscriptions_;
  // Per-market spike predictors (enable_predictive).
  std::map<MarketKey, RevocationPredictor> predictors_;
};

class RepatriationScheduler {
 public:
  explicit RepatriationScheduler(ControllerContext* ctx);

  RepatriationScheduler(const RepatriationScheduler&) = delete;
  RepatriationScheduler& operator=(const RepatriationScheduler&) = delete;

  // Adds `vm` to `key`'s repatriation waitlist, exactly once: a VM already
  // waiting for the same pool is left alone, and one waiting for a different
  // pool is moved (the newest exile wins). Prevents the duplicate entries
  // that ProactivelyDrain / failed planned moves / FinalizeEvacuation used
  // to accumulate for VMs bouncing between pools.
  void EnqueueRepatriation(const MarketKey& key, NestedVmId vm);
  // Drains `key`'s waitlist: every waiting VM still exiled off spot is
  // live-migrated back (or queued on a fresh spot launch).
  void TryRepatriate(const MarketKey& key);
  // True iff `key`'s waitlist holds a VM, so TryRepatriate has work.
  bool HasWaitlist(const MarketKey& key) const {
    const auto it = repatriation_waitlist_.find(key);
    return it != repatriation_waitlist_.end() && !it->second.empty();
  }
  // Live-migrates every settled VM off `key`'s spot hosts onto on-demand
  // before the pool's price reaches the bid.
  void ProactivelyDrain(const MarketKey& key);

  // Host-pool callbacks for WaitIntent::kPlannedMove.
  void OnPlannedMoveHostReady(NestedVm& vm, HostVm& host,
                              const MarketKey& market, bool is_spot);
  void OnPlannedMoveLaunchFailed(const MarketKey& market, bool is_spot,
                                 NestedVmId vm);

  // Planned-move guard (also used by the evacuation staging path).
  void AddPendingMove(NestedVmId vm) { pending_moves_.Insert(vm); }
  bool HasPendingMove(NestedVmId vm) const {
    return pending_moves_.Contains(vm);
  }

  int64_t repatriations() const { return repatriations_; }
  int64_t proactive_migrations() const { return proactive_migrations_; }

  // Introspection for tests and DumpState.
  const std::map<MarketKey, std::vector<NestedVmId>>& waitlist() const {
    return repatriation_waitlist_;
  }
  const FleetTable<NestedVmTag, MarketKey>& waitlisted() const {
    return waitlisted_;
  }

  // Waitlist structural invariants: each VM queued at most once, in the pool
  // its mirror entry names, with no stale mirror entries.
  bool ValidateInvariants(std::string* error) const;

 private:
  // `vm`'s open move span; 0 when none is open (always, untraced).
  SpanId MoveSpan(NestedVmId vm) const;
  // Closes `vm`'s open move span (if any) with a status attribute; no-op
  // when no span is open for it.
  void EndMoveSpan(NestedVmId vm, const char* status);

  ControllerContext* ctx_;
  // VMs currently exiled to on-demand, keyed by the spot pool they left.
  std::map<MarketKey, std::vector<NestedVmId>> repatriation_waitlist_;
  // Mirror of repatriation_waitlist_ (vm -> pool it waits for), kept in sync
  // by EnqueueRepatriation/TryRepatriate to suppress duplicate entries.
  FleetTable<NestedVmTag, MarketKey> waitlisted_;
  // VMs with a planned move (repatriation / proactive drain) whose target
  // host is still launching; guards against double-scheduling a move.
  IdSet<NestedVmTag> pending_moves_;
  // Open "repatriation" / "proactive_drain" spans, schedule -> settle.
  // Empty when tracing is off.
  FleetTable<NestedVmTag, SpanId> move_spans_;

  int64_t repatriations_ = 0;
  int64_t proactive_migrations_ = 0;

  MetricCounter* repatriations_metric_ = nullptr;
  MetricCounter* proactive_migrations_metric_ = nullptr;
};

}  // namespace spotcheck

#endif  // SRC_CORE_REPATRIATION_H_
