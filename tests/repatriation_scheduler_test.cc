// RepatriationScheduler / MarketWatcher component tests: waitlist dedup and
// re-exile, pending-move guards, repatriation and proactive-drain triggers --
// driven against a hand-wired ControllerContext instead of the full
// SpotCheckController facade.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/backup/backup_pool.h"
#include "src/cloud/native_cloud.h"
#include "src/core/controller_config.h"
#include "src/core/controller_context.h"
#include "src/core/evacuation.h"
#include "src/core/event_log.h"
#include "src/core/host_pool.h"
#include "src/core/placement.h"
#include "src/core/repatriation.h"
#include "src/core/storm_tracker.h"
#include "src/market/spot_market.h"
#include "src/net/vpc.h"
#include "src/obs/metrics.h"
#include "src/policy/policy_spec.h"
#include "src/policy/registry.h"
#include "src/sim/simulator.h"
#include "src/virt/activity_log.h"
#include "src/virt/migration_engine.h"
#include "src/virt/nested_vm.h"
#include "src/workload/workload_model.h"

namespace spotcheck {
namespace {

constexpr MarketKey kHomePool{InstanceType::kM3Medium, AvailabilityZone{0}};
constexpr MarketKey kOtherPool{InstanceType::kM3Medium, AvailabilityZone{1}};

struct SchedulerHarness {
  SchedulerHarness() : markets(&sim), cloud(&sim, &markets, CloudConfig()) {
    for (const MarketKey& key : {kHomePool, kOtherPool}) {
      PriceTrace trace;
      trace.Append(SimTime(), 0.008);
      markets.AddWithTrace(key, std::move(trace));
    }
    ctx.sim = &sim;
    ctx.cloud = &cloud;
    ctx.markets = &markets;
    ctx.config = &config;
    ctx.activity_log = &activity_log;
    ctx.event_log = &event_log;
    ctx.engine = &engine;
    ctx.backup_pool = &backup_pool;
    ctx.storms = &storms;
    ctx.vpc = &vpc;
    ctx.vms = &vms;
    SetBid(PolicySpec{}.bid);
    pool = std::make_unique<HostPoolManager>(&ctx);
    ctx.pool = pool.get();
    placement = std::make_unique<PlacementEngine>(&ctx);
    ctx.placement = placement.get();
    evacuation = std::make_unique<EvacuationCoordinator>(&ctx);
    ctx.evacuation = evacuation.get();
    market_watcher = std::make_unique<MarketWatcher>(&ctx);
    ctx.market_watcher = market_watcher.get();
    scheduler = std::make_unique<RepatriationScheduler>(&ctx);
    ctx.repatriation = scheduler.get();
  }

  static NativeCloudConfig CloudConfig() {
    NativeCloudConfig cloud_config;
    cloud_config.sample_latencies = false;
    return cloud_config;
  }

  // The facade creates its BidStrategy once at construction; tests that
  // change the bid mid-setup rebuild it the same way.
  void SetBid(const StrategySpec& spec) {
    bid = CreateBidStrategyOrDie(spec);
    ctx.bid = bid.get();
  }

  NestedVm& NewVm() {
    const NestedVmId id = vm_ids.Next();
    return vms.Emplace(id, id, customer,
                       MakeVmSpec(config.nested_type, config.workload));
  }

  // Launches one host in `market` and returns it once it is up. The launch
  // carries a real placement waiter: a waiter-less host comes up empty and
  // OnHostReady immediately reaps it. The placeholder VM is detached
  // afterwards so the host reads as empty but stays alive and indexed.
  HostVm* LaunchHost(const MarketKey& market, bool is_spot) {
    NestedVm& placeholder = NewVm();
    const size_t before = pool->num_hosts();
    pool->AcquireHost(market, is_spot,
                      Waiter{placeholder.id(), WaitIntent::kInitialPlacement});
    sim.RunUntil(sim.Now() + SimDuration::Seconds(600));
    EXPECT_EQ(pool->num_hosts(), before + 1);
    HostVm* newest = nullptr;
    pool->ForEachHost([&](HostVm& host) {
      newest = &host;  // id-ordered scan; the last one is the newest
    });
    if (newest != nullptr) {
      newest->RemoveVm(placeholder.id(), placeholder.spec());
    }
    backup_pool.Release(placeholder.id());
    placeholder.set_state(NestedVmState::kTerminated);
    placeholder.set_host(InstanceId());
    return newest;
  }

  // Settles `vm` on `host` as a running, repatriation-eligible resident.
  void Settle(NestedVm& vm, HostVm& host) {
    ASSERT_TRUE(host.AddVm(vm.id(), vm.spec()));
    vm.set_host(host.instance());
    vm.set_state(NestedVmState::kRunning);
  }

  Simulator sim;
  MarketPlace markets;
  NativeCloud cloud;
  ControllerConfig config;
  ActivityLog activity_log;
  ControllerEventLog event_log;
  MigrationEngine engine{&sim, &activity_log};
  BackupPool backup_pool;
  RevocationStormTracker storms;
  VirtualPrivateCloud vpc;
  FleetTable<NestedVmTag, NestedVm> vms;
  std::unique_ptr<BidStrategy> bid;
  ControllerContext ctx;
  std::unique_ptr<HostPoolManager> pool;
  std::unique_ptr<PlacementEngine> placement;
  std::unique_ptr<EvacuationCoordinator> evacuation;
  std::unique_ptr<MarketWatcher> market_watcher;
  std::unique_ptr<RepatriationScheduler> scheduler;
  IdGenerator<NestedVmTag> vm_ids;
  IdGenerator<CustomerTag> customer_ids;
  CustomerId customer = customer_ids.Next();
};

TEST(RepatriationSchedulerTest, EnqueueDedupesPerPool) {
  SchedulerHarness h;
  NestedVm& vm = h.NewVm();
  h.scheduler->EnqueueRepatriation(kHomePool, vm.id());
  h.scheduler->EnqueueRepatriation(kHomePool, vm.id());
  ASSERT_EQ(h.scheduler->waitlist().at(kHomePool).size(), 1u);
  EXPECT_EQ(h.scheduler->waitlisted().At(vm.id()), kHomePool);

  std::string error;
  EXPECT_TRUE(h.scheduler->ValidateInvariants(&error)) << error;
}

TEST(RepatriationSchedulerTest, ReExileToDifferentPoolWins) {
  SchedulerHarness h;
  NestedVm& vm = h.NewVm();
  h.scheduler->EnqueueRepatriation(kHomePool, vm.id());
  h.scheduler->EnqueueRepatriation(kOtherPool, vm.id());
  EXPECT_TRUE(h.scheduler->waitlist().at(kHomePool).empty());
  ASSERT_EQ(h.scheduler->waitlist().at(kOtherPool).size(), 1u);
  EXPECT_EQ(h.scheduler->waitlisted().At(vm.id()), kOtherPool);

  std::string error;
  EXPECT_TRUE(h.scheduler->ValidateInvariants(&error)) << error;
}

// A re-exile that empties a pool's waitlist leaves nothing for that pool's
// price changes to repatriate, so its market must go quiet again instead of
// firing every point at or below on-demand until the waitlist refills.
TEST(RepatriationSchedulerTest, ReExileQuietsTheOldPoolsMarket) {
  SchedulerHarness h;
  constexpr MarketKey kOldPool{InstanceType::kM3Large, AvailabilityZone{0}};
  constexpr MarketKey kNewPool{InstanceType::kM3Large, AvailabilityZone{1}};
  const double od = OnDemandPrice(kOldPool.type);
  MetricsRegistry old_metrics;
  MetricsRegistry new_metrics;
  for (const MarketKey& key : {kOldPool, kNewPool}) {
    // A day of five-minute points, every one below on-demand.
    PriceTrace trace;
    for (int i = 0; i < 24 * 12; ++i) {
      trace.Append(SimTime() + SimDuration::Minutes(5 * i),
                   (i % 2 == 0 ? 0.2 : 0.3) * od);
    }
    SpotMarket* market = h.markets.AddWithTrace(key, std::move(trace));
    ASSERT_NE(market, nullptr);
    market->set_metrics(key == kOldPool ? &old_metrics : &new_metrics);
    h.market_watcher->Subscribe(key);
  }
  const auto fired = [](const MetricsRegistry& metrics) {
    return metrics.FindCounter("market.price_changes_fired")->value();
  };
  // Each phase runs two hours: 24 points per market.
  const auto run_phase = [&h] {
    h.sim.RunUntil(h.sim.Now() + SimDuration::Hours(2));
  };

  // No waitlist: both markets are quiet at every price. At most the point
  // queued before the watcher declared its band fires.
  run_phase();
  EXPECT_LE(fired(old_metrics), 1);
  EXPECT_LE(fired(new_metrics), 1);

  // A VM that cannot move yet waits for the old pool: every point fires
  // (each TryRepatriate keeps it waitlisted).
  NestedVm& vm = h.NewVm();
  h.scheduler->EnqueueRepatriation(kOldPool, vm.id());
  int64_t old_before = fired(old_metrics);
  int64_t new_before = fired(new_metrics);
  run_phase();
  EXPECT_EQ(fired(old_metrics) - old_before, 24);
  EXPECT_EQ(fired(new_metrics) - new_before, 0);

  // Re-exiled toward the new pool: the new market wakes, and the old one
  // fires at most the point its last seek had already queued.
  h.scheduler->EnqueueRepatriation(kNewPool, vm.id());
  EXPECT_FALSE(h.scheduler->HasWaitlist(kOldPool));
  old_before = fired(old_metrics);
  new_before = fired(new_metrics);
  run_phase();
  EXPECT_LE(fired(old_metrics) - old_before, 1);
  EXPECT_EQ(fired(new_metrics) - new_before, 24);
}

TEST(RepatriationSchedulerTest, TryRepatriateLiveMigratesExiledVmBackToSpot) {
  SchedulerHarness h;
  HostVm* spot_host = h.LaunchHost(kHomePool, /*is_spot=*/true);
  HostVm* od_host = h.LaunchHost(kHomePool, /*is_spot=*/false);
  NestedVm& vm = h.NewVm();
  h.Settle(vm, *od_host);
  const InstanceId spot_instance = spot_host->instance();

  h.scheduler->EnqueueRepatriation(kHomePool, vm.id());
  h.scheduler->TryRepatriate(kHomePool);
  EXPECT_EQ(h.scheduler->repatriations(), 1);
  h.sim.RunUntil(h.sim.Now() + SimDuration::Seconds(600));

  EXPECT_EQ(vm.host(), spot_instance);
  EXPECT_EQ(vm.state(), NestedVmState::kRunning);
  EXPECT_FALSE(h.scheduler->waitlisted().Contains(vm.id()));
  // The vacated on-demand host is released once empty.
  EXPECT_EQ(h.pool->GetHost(od_host->instance()), nullptr);

  std::string error;
  EXPECT_TRUE(h.scheduler->ValidateInvariants(&error)) << error;
  EXPECT_TRUE(h.pool->ValidateInvariants(&error)) << error;
}

TEST(RepatriationSchedulerTest, AlreadyOnSpotVmIsDroppedFromWaitlist) {
  SchedulerHarness h;
  HostVm* spot_host = h.LaunchHost(kHomePool, /*is_spot=*/true);
  NestedVm& vm = h.NewVm();
  h.Settle(vm, *spot_host);

  h.scheduler->EnqueueRepatriation(kHomePool, vm.id());
  h.scheduler->TryRepatriate(kHomePool);
  EXPECT_EQ(h.scheduler->repatriations(), 0);
  EXPECT_FALSE(h.scheduler->waitlisted().Contains(vm.id()));
}

TEST(RepatriationSchedulerTest, PendingMoveKeepsVmWaitlisted) {
  SchedulerHarness h;
  HostVm* od_host = h.LaunchHost(kHomePool, /*is_spot=*/false);
  NestedVm& vm = h.NewVm();
  h.Settle(vm, *od_host);

  h.scheduler->AddPendingMove(vm.id());
  h.scheduler->EnqueueRepatriation(kHomePool, vm.id());
  h.scheduler->TryRepatriate(kHomePool);
  // The in-flight move blocks a second one, but the exile stays recorded for
  // the next price event.
  EXPECT_EQ(h.scheduler->repatriations(), 0);
  EXPECT_EQ(h.scheduler->waitlisted().At(vm.id()), kHomePool);
}

TEST(RepatriationSchedulerTest, PlannedMoveLaunchFailureRequeuesExile) {
  SchedulerHarness h;
  NestedVm& vm = h.NewVm();
  vm.set_state(NestedVmState::kRunning);
  h.scheduler->AddPendingMove(vm.id());
  h.scheduler->OnPlannedMoveLaunchFailed(kHomePool, /*is_spot=*/true, vm.id());
  EXPECT_FALSE(h.scheduler->HasPendingMove(vm.id()));
  EXPECT_EQ(h.scheduler->waitlisted().At(vm.id()), kHomePool);
}

// The vm -> pool mirror and the pending-move guard against a std::map /
// std::set model, over random sequences of enqueues (re-exiles to the other
// pool included), pending moves, failed planned moves and TryRepatriate
// fires. Each VM's state fixes what a fire does with it when it has no
// pending move: keep it waiting (mid-migration), start a move that waits
// on a spot launch, drop it (already on spot), or drop it (dead).
TEST(RepatriationSchedulerTest, WaitlistMatchesMapReferenceModel) {
  SchedulerHarness h;
  // The VMs already home sit in a third pool, so a fire for the two
  // waitlist pools never finds a host with capacity: every started move
  // waits on a spot launch, which the test never lets come up.
  constexpr MarketKey kSpotPool{InstanceType::kM3Medium, AvailabilityZone{2}};
  {
    PriceTrace trace;
    trace.Append(SimTime(), 0.008);
    ASSERT_NE(h.markets.AddWithTrace(kSpotPool, std::move(trace)), nullptr);
  }
  HostVm* spot_host = h.LaunchHost(kSpotPool, /*is_spot=*/true);
  ASSERT_NE(spot_host, nullptr);

  enum class Kind { kMidMigration, kMoves, kOnSpot, kDead };
  const auto set_kind = [&](NestedVm& vm, Kind kind) {
    switch (kind) {
      case Kind::kMidMigration:
        vm.set_state(NestedVmState::kMigrating);
        vm.set_host(InstanceId());
        break;
      case Kind::kMoves:
        vm.set_state(NestedVmState::kRunning);
        vm.set_host(InstanceId());
        break;
      case Kind::kOnSpot:
        vm.set_state(NestedVmState::kRunning);
        vm.set_host(spot_host->instance());
        break;
      case Kind::kDead:
        vm.set_state(NestedVmState::kTerminated);
        vm.set_host(InstanceId());
        break;
    }
  };
  std::vector<NestedVm*> vms;
  std::map<NestedVmId, Kind> kind;
  for (int i = 0; i < 24; ++i) {
    NestedVm& vm = h.NewVm();
    vms.push_back(&vm);
    kind[vm.id()] = static_cast<Kind>(i % 4);
    set_kind(vm, kind[vm.id()]);
  }

  std::map<NestedVmId, MarketKey> waitlisted;
  std::set<NestedVmId> pending;
  const MarketKey pools[] = {kHomePool, kOtherPool};
  std::mt19937_64 rng(20261018);
  int re_exiles = 0;
  int kept_by_pending = 0;
  int moves_started = 0;
  int dropped = 0;
  for (int step = 0; step < 3000; ++step) {
    NestedVm& vm = *vms[rng() % vms.size()];
    const MarketKey pool = pools[rng() % 2];
    switch (rng() % 6) {
      case 0:
      case 1: {
        const auto it = waitlisted.find(vm.id());
        re_exiles += it != waitlisted.end() && !(it->second == pool);
        h.scheduler->EnqueueRepatriation(pool, vm.id());
        waitlisted[vm.id()] = pool;
        break;
      }
      case 2:
        h.scheduler->AddPendingMove(vm.id());
        pending.insert(vm.id());
        break;
      case 3:
        h.scheduler->OnPlannedMoveLaunchFailed(pool, /*is_spot=*/true,
                                               vm.id());
        pending.erase(vm.id());
        waitlisted[vm.id()] = pool;
        break;
      case 4: {
        h.scheduler->TryRepatriate(pool);
        for (auto it = waitlisted.begin(); it != waitlisted.end();) {
          const NestedVmId id = it->first;
          const Kind k = kind.at(id);
          if (!(it->second == pool)) {
            ++it;
          } else if (k != Kind::kDead &&
                     (pending.contains(id) || k == Kind::kMidMigration)) {
            kept_by_pending += pending.contains(id) ? 1 : 0;
            ++it;  // requeued for the next fire
          } else {
            it = waitlisted.erase(it);
            if (k == Kind::kMoves) {
              pending.insert(id);
              ++moves_started;
            } else {
              ++dropped;
            }
          }
        }
        break;
      }
      default: {
        const Kind next = static_cast<Kind>(rng() % 4);
        kind[vm.id()] = next;
        set_kind(vm, next);
        break;
      }
    }

    const FleetTable<NestedVmTag, MarketKey>& table =
        h.scheduler->waitlisted();
    ASSERT_EQ(table.size(), waitlisted.size()) << "step " << step;
    for (const NestedVm* each : vms) {
      const auto it = waitlisted.find(each->id());
      ASSERT_EQ(table.Contains(each->id()), it != waitlisted.end())
          << "step " << step << " " << each->id().ToString();
      if (it != waitlisted.end()) {
        ASSERT_EQ(table.At(each->id()), it->second)
            << "step " << step << " " << each->id().ToString();
      }
      ASSERT_EQ(h.scheduler->HasPendingMove(each->id()),
                pending.contains(each->id()))
          << "step " << step << " " << each->id().ToString();
    }
    std::string error;
    ASSERT_TRUE(h.scheduler->ValidateInvariants(&error))
        << "step " << step << ": " << error;
  }
  // Every path was taken.
  EXPECT_GT(re_exiles, 50);
  EXPECT_GT(kept_by_pending, 50);
  EXPECT_GT(moves_started, 50);
  EXPECT_GT(dropped, 50);
}

TEST(RepatriationSchedulerTest, MarketWatcherGatesRepatriationOnPrice) {
  SchedulerHarness h;
  h.LaunchHost(kHomePool, /*is_spot=*/true);
  HostVm* od_host = h.LaunchHost(kHomePool, /*is_spot=*/false);
  NestedVm& vm = h.NewVm();
  h.Settle(vm, *od_host);
  h.scheduler->EnqueueRepatriation(kHomePool, vm.id());

  // Above the on-demand price: the pool is still unattractive.
  h.market_watcher->OnPriceChange(kHomePool,
                                  2.0 * OnDemandPrice(kHomePool.type));
  EXPECT_EQ(h.scheduler->repatriations(), 0);
  // At/below the on-demand price the exiles head home.
  h.market_watcher->OnPriceChange(kHomePool,
                                  0.1 * OnDemandPrice(kHomePool.type));
  EXPECT_EQ(h.scheduler->repatriations(), 1);
}

TEST(RepatriationSchedulerTest, ProactiveDrainMovesVmsOffRiskyPool) {
  SchedulerHarness h;
  h.config.enable_proactive = true;
  h.SetBid(StrategySpec{"multiple", {4.0}});
  HostVm* spot_host = h.LaunchHost(kHomePool, /*is_spot=*/true);
  NestedVm& vm = h.NewVm();
  h.Settle(vm, *spot_host);

  // Price between on-demand and the 4x bid: drain before any revocation.
  const double od = OnDemandPrice(kHomePool.type);
  h.market_watcher->OnPriceChange(kHomePool, 2.0 * od);
  EXPECT_EQ(h.scheduler->proactive_migrations(), 1);
  EXPECT_TRUE(h.scheduler->HasPendingMove(vm.id()));
  // ... and the VM is pre-registered to return once the spike abates.
  EXPECT_EQ(h.scheduler->waitlisted().At(vm.id()), kHomePool);

  h.sim.RunUntil(h.sim.Now() + SimDuration::Seconds(600));
  EXPECT_FALSE(h.scheduler->HasPendingMove(vm.id()));
  const HostVm* now_on = h.pool->GetHost(vm.host());
  ASSERT_NE(now_on, nullptr);
  EXPECT_FALSE(now_on->is_spot());

  std::string error;
  EXPECT_TRUE(h.pool->ValidateInvariants(&error)) << error;
}

}  // namespace
}  // namespace spotcheck
