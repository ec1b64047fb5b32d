// RepatriationScheduler / MarketWatcher component tests: waitlist dedup and
// re-exile, pending-move guards, repatriation and proactive-drain triggers --
// driven against a hand-wired ControllerContext instead of the full
// SpotCheckController facade.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>

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

  // Settles `vm` on `host` as a repatriation-eligible resident: running,
  // with the volume/address the move machinery re-attaches.
  void Settle(NestedVm& vm, HostVm& host) {
    ASSERT_TRUE(host.AddVm(vm.id(), vm.spec()));
    vm.set_host(host.instance());
    vm.set_state(NestedVmState::kRunning);
    vm.set_root_volume(cloud.CreateVolume(8.0));
    vm.set_address(cloud.AllocateAddress());
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
  EXPECT_EQ(h.scheduler->waitlisted().at(vm.id()), kHomePool);

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
  EXPECT_EQ(h.scheduler->waitlisted().at(vm.id()), kOtherPool);

  std::string error;
  EXPECT_TRUE(h.scheduler->ValidateInvariants(&error)) << error;
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
  EXPECT_FALSE(h.scheduler->waitlisted().contains(vm.id()));
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
  EXPECT_FALSE(h.scheduler->waitlisted().contains(vm.id()));
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
  EXPECT_EQ(h.scheduler->waitlisted().at(vm.id()), kHomePool);
}

TEST(RepatriationSchedulerTest, PlannedMoveLaunchFailureRequeuesExile) {
  SchedulerHarness h;
  NestedVm& vm = h.NewVm();
  vm.set_state(NestedVmState::kRunning);
  h.scheduler->AddPendingMove(vm.id());
  h.scheduler->OnPlannedMoveLaunchFailed(kHomePool, /*is_spot=*/true, vm.id());
  EXPECT_FALSE(h.scheduler->HasPendingMove(vm.id()));
  EXPECT_EQ(h.scheduler->waitlisted().at(vm.id()), kHomePool);
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
  EXPECT_EQ(h.scheduler->waitlisted().at(vm.id()), kHomePool);

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
