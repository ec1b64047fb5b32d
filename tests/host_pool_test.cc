// HostPoolManager component tests: the per-market capacity indexes, the
// pending-spot join index, hot-spare reservation/promotion, and host
// lifecycle -- exercised against a hand-wired ControllerContext instead of
// the full SpotCheckController facade.

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
#include "src/net/connection_tracker.h"
#include "src/net/nat_table.h"
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

constexpr MarketKey kLargePool{InstanceType::kM3Large, AvailabilityZone{0}};
constexpr MarketKey kHomePool{InstanceType::kM3Medium, AvailabilityZone{0}};

// The facade's wiring, minus the facade: every component is real, but tests
// drive the HostPoolManager directly.
struct PoolHarness {
  PoolHarness() : markets(&sim), cloud(&sim, &markets, CloudConfig()) {
    for (const MarketKey& key : {kHomePool, kLargePool}) {
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
    ctx.network = &network;
    ctx.connections = &connections;
    ctx.vms = &vms;
    bid = CreateBidStrategyOrDie(PolicySpec{}.bid);
    ctx.bid = bid.get();
    pool = std::make_unique<HostPoolManager>(&ctx);
    ctx.pool = pool.get();
    placement = std::make_unique<PlacementEngine>(&ctx);
    ctx.placement = placement.get();
    evacuation = std::make_unique<EvacuationCoordinator>(&ctx);
    ctx.evacuation = evacuation.get();
    market_watcher = std::make_unique<MarketWatcher>(&ctx);
    ctx.market_watcher = market_watcher.get();
    repatriation = std::make_unique<RepatriationScheduler>(&ctx);
    ctx.repatriation = repatriation.get();
  }

  static NativeCloudConfig CloudConfig() {
    NativeCloudConfig cloud_config;
    cloud_config.sample_latencies = false;
    return cloud_config;
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

  // Settles `vm` on `host` the way AttachVmToHost would, minus the network
  // bookkeeping the pool does not care about.
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
  HostNetworkPlane network;
  ConnectionTracker connections;
  FleetTable<NestedVmTag, NestedVm> vms;
  std::unique_ptr<BidStrategy> bid;
  ControllerContext ctx;
  std::unique_ptr<HostPoolManager> pool;
  std::unique_ptr<PlacementEngine> placement;
  std::unique_ptr<EvacuationCoordinator> evacuation;
  std::unique_ptr<MarketWatcher> market_watcher;
  std::unique_ptr<RepatriationScheduler> repatriation;
  IdGenerator<NestedVmTag> vm_ids;
  IdGenerator<CustomerTag> customer_ids;
  CustomerId customer = customer_ids.Next();
};

TEST(HostPoolTest, CapacityIndexFindsHostsInAcquisitionOrder) {
  PoolHarness h;
  h.LaunchHost(kLargePool, /*is_spot=*/true);
  h.LaunchHost(kLargePool, /*is_spot=*/true);
  ASSERT_EQ(h.pool->num_hosts(), 2u);

  const InstanceId first = h.pool->Hosts().front()->instance();
  const NestedVmSpec spec = MakeVmSpec(h.config.nested_type, h.config.workload);
  HostVm* found = h.pool->FindHostWithCapacity(kLargePool, /*spot=*/true, spec);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->instance(), first);  // earliest acquisition wins

  // Fill the first host (an m3.large takes two m3.medium VMs); the lookup
  // must move on to the second.
  const int slots = NestedSlotsPerHost(kLargePool.type, h.config.nested_type);
  ASSERT_EQ(slots, 2);
  for (int i = 0; i < slots; ++i) {
    h.Settle(h.NewVm(), *found);
  }
  HostVm* next = h.pool->FindHostWithCapacity(kLargePool, /*spot=*/true, spec);
  ASSERT_NE(next, nullptr);
  EXPECT_NE(next->instance(), first);

  // Wrong side / wrong market buckets stay empty.
  EXPECT_EQ(h.pool->FindHostWithCapacity(kLargePool, /*spot=*/false, spec),
            nullptr);
  EXPECT_EQ(h.pool->FindHostWithCapacity(kHomePool, /*spot=*/true, spec),
            nullptr);

  std::string error;
  EXPECT_TRUE(h.pool->ValidateInvariants(&error)) << error;
}

TEST(HostPoolTest, PendingSpotIndexJoinsInFlightLaunches) {
  PoolHarness h;
  NestedVm& a = h.NewVm();
  NestedVm& b = h.NewVm();
  NestedVm& c = h.NewVm();
  // Two waiters share the first in-flight m3.large (two nested slots); the
  // third must trigger a second launch.
  h.pool->QueueOrAcquireSpot(kLargePool,
                             Waiter{a.id(), WaitIntent::kInitialPlacement});
  EXPECT_EQ(h.pool->num_pending_hosts(), 1u);
  h.pool->QueueOrAcquireSpot(kLargePool,
                             Waiter{b.id(), WaitIntent::kInitialPlacement});
  EXPECT_EQ(h.pool->num_pending_hosts(), 1u);
  h.pool->QueueOrAcquireSpot(kLargePool,
                             Waiter{c.id(), WaitIntent::kInitialPlacement});
  EXPECT_EQ(h.pool->num_pending_hosts(), 2u);

  h.sim.RunUntil(SimTime::FromSeconds(600));
  EXPECT_EQ(h.pool->num_pending_hosts(), 0u);
  ASSERT_EQ(h.pool->num_hosts(), 2u);
  EXPECT_EQ(a.state(), NestedVmState::kRunning);
  EXPECT_EQ(a.host(), b.host());  // co-located on the shared launch
  EXPECT_NE(a.host(), c.host());

  std::string error;
  EXPECT_TRUE(h.pool->ValidateInvariants(&error)) << error;
}

TEST(HostPoolTest, HotSparesAreReservedUntilPromoted) {
  PoolHarness h;
  h.config.hot_spares = 2;
  h.pool->ReplenishHotSpares();
  EXPECT_EQ(h.pool->num_pending_hot_spares(), 2);
  h.pool->ReplenishHotSpares();  // idempotent while launches are in flight
  EXPECT_EQ(h.pool->num_pending_hot_spares(), 2);
  h.sim.RunUntil(SimTime::FromSeconds(600));
  ASSERT_EQ(h.pool->hot_spare_hosts().size(), 2u);

  const InstanceId spare = h.pool->hot_spare_hosts().front();
  EXPECT_TRUE(h.pool->IsHotSpare(spare));
  // Idle spares survive release sweeps and are invisible to placement.
  h.pool->MaybeReleaseHost(spare);
  EXPECT_NE(h.pool->GetHost(spare), nullptr);
  const NestedVmSpec spec = MakeVmSpec(h.config.nested_type, h.config.workload);
  EXPECT_EQ(h.pool->FindHostWithCapacity(kHomePool, /*spot=*/false, spec),
            nullptr);

  HostVm* promoted = h.pool->PromoteHotSpare(spare);
  ASSERT_NE(promoted, nullptr);
  EXPECT_FALSE(h.pool->IsHotSpare(spare));
  EXPECT_EQ(h.pool->hot_spare_hosts().size(), 1u);
  EXPECT_EQ(h.pool->FindHostWithCapacity(kHomePool, /*spot=*/false, spec),
            promoted);

  // Replenishment tops the spare set back up to the configured level.
  h.pool->ReplenishHotSpares();
  EXPECT_EQ(h.pool->num_pending_hot_spares(), 1);

  std::string error;
  EXPECT_TRUE(h.pool->ValidateInvariants(&error)) << error;
}

TEST(HostPoolTest, EmptyHostsAreTerminatedAndUnindexed) {
  PoolHarness h;
  HostVm* host = h.LaunchHost(kHomePool, /*is_spot=*/true);
  ASSERT_NE(host, nullptr);
  const InstanceId instance = host->instance();

  NestedVm& vm = h.NewVm();
  h.Settle(vm, *host);
  h.pool->MaybeReleaseHost(instance);  // occupied: no-op
  EXPECT_NE(h.pool->GetHost(instance), nullptr);

  host->RemoveVm(vm.id(), vm.spec());
  vm.set_state(NestedVmState::kTerminated);
  vm.set_host(InstanceId());
  h.pool->MaybeReleaseHost(instance);
  EXPECT_EQ(h.pool->GetHost(instance), nullptr);
  const NestedVmSpec spec = MakeVmSpec(h.config.nested_type, h.config.workload);
  EXPECT_EQ(h.pool->FindHostWithCapacity(kHomePool, /*spot=*/true, spec),
            nullptr);
  const Instance* native = h.cloud.GetInstance(instance);
  ASSERT_NE(native, nullptr);
  EXPECT_EQ(native->state, InstanceState::kTerminated);

  std::string error;
  EXPECT_TRUE(h.pool->ValidateInvariants(&error)) << error;
}

TEST(HostPoolTest, InvariantsFlagLeakedDeadResident) {
  PoolHarness h;
  HostVm* host = h.LaunchHost(kHomePool, /*is_spot=*/true);
  ASSERT_NE(host, nullptr);

  NestedVm& vm = h.NewVm();
  h.Settle(vm, *host);
  std::string error;
  ASSERT_TRUE(h.pool->ValidateInvariants(&error)) << error;

  // A dead VM still listed on its host (with no open evacuation record) is
  // leaked capacity and must be reported.
  vm.set_state(NestedVmState::kFailed);
  EXPECT_FALSE(h.pool->ValidateInvariants(&error));
  EXPECT_NE(error.find("retains dead VM"), std::string::npos) << error;
}

}  // namespace
}  // namespace spotcheck
