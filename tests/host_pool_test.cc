// HostPoolManager component tests: the per-market spot capacity indexes
// (checked against a naive scan), the joinable index of pending launches,
// hot-spare reservation/promotion, and host lifecycle -- exercised against
// a hand-wired ControllerContext instead of the full SpotCheckController
// facade.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
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
    return NewVm(MakeVmSpec(config.nested_type, config.workload));
  }
  NestedVm& NewVm(const NestedVmSpec& spec) {
    const NestedVmId id = vm_ids.Next();
    return vms.Emplace(id, id, customer, spec);
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
  HostVm* found = h.pool->FindHostWithCapacity(kLargePool, spec);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->instance(), first);  // earliest acquisition wins

  // Fill the first host (an m3.large takes two m3.medium VMs); the lookup
  // must move on to the second.
  const int slots = NestedSlotsPerHost(kLargePool.type, h.config.nested_type);
  ASSERT_EQ(slots, 2);
  for (int i = 0; i < slots; ++i) {
    h.Settle(h.NewVm(), *found);
  }
  HostVm* next = h.pool->FindHostWithCapacity(kLargePool, spec);
  ASSERT_NE(next, nullptr);
  EXPECT_NE(next->instance(), first);

  // Another market's bucket stays empty.
  EXPECT_EQ(h.pool->FindHostWithCapacity(kHomePool, spec), nullptr);

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
  // Idle spares survive release sweeps.
  h.pool->MaybeReleaseHost(spare);
  EXPECT_NE(h.pool->GetHost(spare), nullptr);

  HostVm* promoted = h.pool->PromoteHotSpare(spare);
  ASSERT_NE(promoted, nullptr);
  EXPECT_FALSE(h.pool->IsHotSpare(spare));
  EXPECT_EQ(h.pool->hot_spare_hosts().size(), 1u);

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
  EXPECT_EQ(h.pool->FindHostWithCapacity(kHomePool, spec), nullptr);
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

// Naive reference for FindHostWithCapacity: the first host, in id order,
// that is spot, in `market`, has a running native instance and can take
// `spec`.
const HostVm* ScanForHost(const PoolHarness& h, const MarketKey& market,
                          const NestedVmSpec& spec) {
  for (const HostVm* host : h.pool->Hosts()) {
    if (!host->is_spot() || !(host->market() == market) ||
        !host->CanHost(spec)) {
      continue;
    }
    const Instance* native = h.cloud.GetInstance(host->instance());
    if (native != nullptr && native->state == InstanceState::kRunning) {
      return host;
    }
  }
  return nullptr;
}

TEST(HostPoolTest, PlacementMatchesNaiveScanReferenceModel) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    PoolHarness h;
    h.config.hot_spares = 2;  // on-demand spares in the home market
    h.pool->ReplenishHotSpares();
    h.sim.RunUntil(SimTime::FromSeconds(600));
    const NestedVmSpec standard =
        MakeVmSpec(h.config.nested_type, h.config.workload);
    NestedVmSpec half = standard;  // leaves sub-slot headroom behind
    half.memory_mb = standard.memory_mb / 2;
    const NestedVmSpec* const specs[] = {&standard, &half};
    std::mt19937_64 rng(seed);
    std::vector<NestedVm*> settled;
    int picks = 0;          // lookups that found a host
    int sub_slot_only = 0;  // only the sub-slot spec fits anywhere
    for (int step = 0; step < 400; ++step) {
      const uint64_t op = rng() % 10;
      const std::vector<const HostVm*> hosts = h.pool->Hosts();
      if (op < 1 || hosts.empty()) {
        h.LaunchHost(rng() % 2 == 0 ? kHomePool : kLargePool,
                     /*is_spot=*/rng() % 4 != 0);
      } else if (op < 6) {
        const NestedVmSpec& spec = rng() % 3 == 0 ? half : standard;
        HostVm* host = h.pool->GetMutableHost(
            hosts[rng() % hosts.size()]->instance());
        if (!h.pool->IsHotSpare(host->instance()) && host->CanHost(spec)) {
          NestedVm& vm = h.NewVm(spec);
          h.Settle(vm, *host);
          settled.push_back(&vm);
        }
      } else if (op < 9) {
        if (!settled.empty()) {
          const size_t victim = rng() % settled.size();
          NestedVm& vm = *settled[victim];
          h.pool->GetMutableHost(vm.host())->RemoveVm(vm.id(), vm.spec());
          vm.set_state(NestedVmState::kTerminated);
          vm.set_host(InstanceId());
          settled[victim] = settled.back();
          settled.pop_back();
        }
      } else {
        h.pool->MaybeReleaseHost(hosts[rng() % hosts.size()]->instance());
      }
      for (const MarketKey& market : {kHomePool, kLargePool}) {
        for (const NestedVmSpec* spec : specs) {
          const HostVm* expected = ScanForHost(h, market, *spec);
          ASSERT_EQ(h.pool->FindHostWithCapacity(market, *spec), expected)
              << "step " << step << " market " << market.ToString()
              << " memory " << spec->memory_mb;
          picks += expected != nullptr ? 1 : 0;
        }
        sub_slot_only += ScanForHost(h, market, standard) == nullptr &&
                         ScanForHost(h, market, half) != nullptr;
      }
      if (step % 50 == 0) {
        std::string error;
        ASSERT_TRUE(h.pool->ValidateInvariants(&error)) << error;
      }
    }
    EXPECT_GT(picks, 0);
    EXPECT_GT(sub_slot_only, 0);
  }
}

// Differential check of the joinable pick in QueueOrAcquireSpot, against a
// reference that needs no index: walk the cloud's pending instances in id
// order and take the first spot launch of the waiter's market that, by the
// reference's own waiter count, still has a free nested slot. Seeded random
// waiters in three markets (one, two and four nested slots) mix with
// waiter-less spot launches (joinable, empty), on-demand launches and hot
// spares (never joinable), and time advances that resolve launches (on
// demand before spot, so not in id order). Each waiter must land on the
// launch the reference picks, or on a fresh launch when none has room, and
// every VM must come up on that host.
TEST(HostPoolTest, JoinablePickMatchesPendingScanReferenceModel) {
  constexpr MarketKey kXlargePool{InstanceType::kM3Xlarge, AvailabilityZone{0}};
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    PoolHarness h;
    PriceTrace trace;
    trace.Append(SimTime(), 0.03);
    h.markets.AddWithTrace(kXlargePool, std::move(trace));
    const MarketKey markets[] = {kHomePool, kLargePool, kXlargePool};
    std::mt19937_64 rng(seed);
    std::map<InstanceId, int> waiters;  // the reference's count per launch
    std::vector<std::pair<const NestedVm*, InstanceId>> landed;
    int joins = 0;
    int fresh = 0;
    for (int step = 0; step < 600; ++step) {
      const uint64_t op = rng() % 20;
      const MarketKey& market = markets[rng() % 3];
      if (op < 13) {
        const int slots = NestedSlotsPerHost(market.type, h.config.nested_type);
        const std::vector<const Instance*> pending =
            h.cloud.Instances(InstanceState::kPending);
        InstanceId pick;
        for (const Instance* instance : pending) {
          if (instance->mode == BillingMode::kSpot &&
              instance->market == market && waiters[instance->id] < slots) {
            pick = instance->id;
            break;
          }
        }
        const NestedVm& vm = h.NewVm();
        h.pool->QueueOrAcquireSpot(
            market, Waiter{vm.id(), WaitIntent::kInitialPlacement});
        const std::vector<const Instance*> after =
            h.cloud.Instances(InstanceState::kPending);
        if (pick.valid()) {
          ASSERT_EQ(after.size(), pending.size())
              << "step " << step << ": launched instead of joining "
              << pick.ToString();
          ++joins;
        } else {
          ASSERT_EQ(after.size(), pending.size() + 1)
              << "step " << step << ": joined a launch with no room";
          pick = after.back()->id;
          ++fresh;
        }
        ++waiters[pick];
        landed.emplace_back(&vm, pick);
      } else if (op < 16) {
        h.pool->AcquireHost(market, /*is_spot=*/op < 15, Waiter{});
      } else if (op < 17) {
        ++h.config.hot_spares;
        h.pool->ReplenishHotSpares();
      } else {
        h.sim.RunUntil(h.sim.Now() +
                       SimDuration::Seconds(static_cast<double>(rng() % 200)));
      }
      if (step % 50 == 0) {
        std::string error;
        ASSERT_TRUE(h.pool->ValidateInvariants(&error)) << error;
      }
    }
    h.sim.RunUntil(h.sim.Now() + SimDuration::Hours(1));
    EXPECT_EQ(h.pool->num_pending_hosts(), 0u);
    for (const auto& [vm, instance] : landed) {
      ASSERT_EQ(vm->state(), NestedVmState::kRunning) << vm->id().ToString();
      ASSERT_EQ(vm->host(), instance) << vm->id().ToString();
    }
    EXPECT_GT(joins, 0);
    EXPECT_GT(fresh, 0);
    std::string error;
    EXPECT_TRUE(h.pool->ValidateInvariants(&error)) << error;
  }
}

}  // namespace
}  // namespace spotcheck
