#include "src/backup/backup_server.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "src/backup/backup_pool.h"
#include "src/obs/profiler.h"

namespace spotcheck {
namespace {

BackupServer MakeServer(int max_vms = 40) {
  return BackupServer(BackupServerId(1), InstanceType::kM3Xlarge,
                      BackupServerPerf{}, max_vms);
}

TEST(BackupServerTest, StreamLifecycle) {
  BackupServer server = MakeServer();
  EXPECT_TRUE(server.AddStream(NestedVmId(1), 3.0));
  EXPECT_TRUE(server.HasStream(NestedVmId(1)));
  EXPECT_FALSE(server.AddStream(NestedVmId(1), 3.0));  // duplicate
  EXPECT_EQ(server.num_streams(), 1);
  EXPECT_DOUBLE_EQ(server.checkpoint_demand_mbps(), 3.0);
  server.RemoveStream(NestedVmId(1));
  EXPECT_EQ(server.num_streams(), 0);
  EXPECT_DOUBLE_EQ(server.checkpoint_demand_mbps(), 0.0);
}

TEST(BackupServerTest, CapacityEnforced) {
  BackupServer server = MakeServer(2);
  EXPECT_TRUE(server.AddStream(NestedVmId(1), 3.0));
  EXPECT_TRUE(server.AddStream(NestedVmId(2), 3.0));
  EXPECT_TRUE(server.full());
  EXPECT_FALSE(server.AddStream(NestedVmId(3), 3.0));
}

TEST(BackupServerTest, LoadFactorCrossesOneNear40Vms) {
  // Figure 7: degradation appears beyond ~35-40 VMs per backup server.
  BackupServer server = MakeServer(100);
  for (int i = 1; i <= 35; ++i) {
    server.AddStream(NestedVmId(i), 3.0);
  }
  EXPECT_LT(server.CheckpointLoadFactor(), 1.0);
  for (int i = 36; i <= 50; ++i) {
    server.AddStream(NestedVmId(i), 3.0);
  }
  EXPECT_GT(server.CheckpointLoadFactor(), 1.0);
}

TEST(BackupServerTest, AmortizedCostUnderOneCentAt40Vms) {
  // Section 6.1: $0.28/hr m3.xlarge across 40 VMs = $0.007 per VM-hour.
  BackupServer server = MakeServer();
  for (int i = 1; i <= 40; ++i) {
    server.AddStream(NestedVmId(i), 3.0);
  }
  EXPECT_NEAR(server.AmortizedCostPerVm(), 0.007, 1e-9);
  EXPECT_DOUBLE_EQ(server.hourly_cost(), 0.28);
}

TEST(BackupServerTest, RestoreSessionTracking) {
  BackupServer server = MakeServer();
  server.BeginRestore(NestedVmId(1));
  server.BeginRestore(NestedVmId(2));
  EXPECT_EQ(server.active_restores(), 2);
  server.EndRestore(NestedVmId(1));
  EXPECT_EQ(server.active_restores(), 1);
  server.EndRestore(NestedVmId(2));
  server.EndRestore(NestedVmId(2));  // extra End is clamped
  EXPECT_EQ(server.active_restores(), 0);
}

TEST(BackupServerTest, RestoreBandwidthDropsWithConcurrency) {
  const BackupServer server = MakeServer();
  for (RestoreKind kind : {RestoreKind::kFull, RestoreKind::kLazy}) {
    for (bool optimized : {false, true}) {
      const double bw1 = server.PerVmRestoreBandwidth(kind, optimized, 1);
      const double bw5 = server.PerVmRestoreBandwidth(kind, optimized, 5);
      const double bw10 = server.PerVmRestoreBandwidth(kind, optimized, 10);
      EXPECT_GT(bw1, bw5);
      EXPECT_GT(bw5, bw10);
      EXPECT_GT(bw10, 0.0);
    }
  }
}

TEST(BackupServerTest, FadviseOptimizationHelpsRandomReadsMost) {
  // Figure 8(b): unoptimized lazy restores collapse at 10 concurrent
  // sessions; the fadvise hints recover most of the loss.
  const BackupServer server = MakeServer();
  const double lazy_unopt = server.PerVmRestoreBandwidth(RestoreKind::kLazy, false, 10);
  const double lazy_opt = server.PerVmRestoreBandwidth(RestoreKind::kLazy, true, 10);
  EXPECT_GT(lazy_opt, 3.0 * lazy_unopt);
  const double full_unopt = server.PerVmRestoreBandwidth(RestoreKind::kFull, false, 10);
  const double full_opt = server.PerVmRestoreBandwidth(RestoreKind::kFull, true, 10);
  EXPECT_GT(full_opt, full_unopt);
  // Sequential reads beat random reads without hints.
  EXPECT_GT(full_unopt, lazy_unopt);
}

TEST(BackupServerTest, NetworkCapsSingleStream) {
  // One optimized sequential stream reads disk faster than the NIC can ship.
  const BackupServer server = MakeServer();
  EXPECT_DOUBLE_EQ(server.PerVmRestoreBandwidth(RestoreKind::kFull, true, 1),
                   server.perf().network_mbps);
}

TEST(BackupPoolTest, RoundRobinSpreadsVms) {
  BackupPoolConfig config;
  config.max_vms_per_server = 2;
  BackupPool pool(config);
  for (int i = 1; i <= 5; ++i) {
    pool.Assign(NestedVmId(i), 3.0);
  }
  EXPECT_EQ(pool.num_servers(), 3);
  EXPECT_EQ(pool.num_assigned(), 5);
  // No server exceeds its cap.
  for (const auto& server : pool.servers()) {
    EXPECT_LE(server->num_streams(), 2);
  }
}

TEST(BackupPoolTest, AssignIsIdempotentPerVm) {
  BackupPool pool;
  BackupServer& first = pool.Assign(NestedVmId(1), 3.0);
  BackupServer& second = pool.Assign(NestedVmId(1), 3.0);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(pool.num_servers(), 1);
}

TEST(BackupPoolTest, ReleaseFreesSlotForReuse) {
  BackupPoolConfig config;
  config.max_vms_per_server = 1;
  BackupPool pool(config);
  pool.Assign(NestedVmId(1), 3.0);
  pool.Release(NestedVmId(1));
  EXPECT_EQ(pool.ServerFor(NestedVmId(1)), nullptr);
  pool.Assign(NestedVmId(2), 3.0);
  EXPECT_EQ(pool.num_servers(), 1);  // reused the freed slot
}

TEST(BackupPoolTest, AccruedCostIntegratesProvisionTime) {
  BackupPool pool;
  pool.Assign(NestedVmId(1), 3.0, SimTime());
  const SimTime later = SimTime() + SimDuration::Hours(10);
  EXPECT_NEAR(pool.TotalAccruedCost(later), 0.28 * 10.0, 1e-9);
  EXPECT_NEAR(pool.TotalHourlyCost(), 0.28, 1e-12);
}

// Reference model: the cyclic probe loop BackupPool::Assign ran before it
// indexed the servers with room, over the ordered maps the pool and its
// servers kept before they became flat vectors: VM -> server index, and
// per server VM -> checkpoint demand with the demand total kept in call
// order.
class ProbeLoopModel {
 public:
  static constexpr size_t kNone = SIZE_MAX;

  explicit ProbeLoopModel(int max_vms) : max_vms_(max_vms) {}

  // Returns the index of the server `vm` lands on.
  size_t Assign(int vm, double demand_mbps) {
    if (const auto it = assignment_.find(vm); it != assignment_.end()) {
      return it->second;
    }
    for (size_t probe = 0; probe < servers_.size(); ++probe) {
      const size_t candidate = rr_cursor_ % servers_.size();
      rr_cursor_ = (rr_cursor_ + 1) % servers_.size();
      if (static_cast<int>(servers_[candidate].streams.size()) < max_vms_) {
        return Add(candidate, vm, demand_mbps);
      }
    }
    servers_.emplace_back();
    return Add(servers_.size() - 1, vm, demand_mbps);
  }

  void Release(int vm) {
    if (const auto it = assignment_.find(vm); it != assignment_.end()) {
      Server& server = servers_[it->second];
      server.demand_mbps -= server.streams.at(vm);
      server.streams.erase(vm);
      assignment_.erase(it);
    }
  }

  size_t num_servers() const { return servers_.size(); }
  size_t num_assigned() const { return assignment_.size(); }
  size_t ServerOf(int vm) const {
    const auto it = assignment_.find(vm);
    return it == assignment_.end() ? kNone : it->second;
  }
  size_t num_streams(size_t server) const {
    return servers_[server].streams.size();
  }
  double demand_mbps(size_t server) const {
    return servers_[server].demand_mbps;
  }

 private:
  struct Server {
    std::map<int, double> streams;
    double demand_mbps = 0.0;
  };

  size_t Add(size_t server, int vm, double demand_mbps) {
    servers_[server].streams[vm] = demand_mbps;
    servers_[server].demand_mbps += demand_mbps;
    return assignment_[vm] = server;
  }

  int max_vms_;
  std::vector<Server> servers_;
  std::map<int, size_t> assignment_;
  size_t rr_cursor_ = 0;
};

// Differential check of the open-server index and the flat tables behind
// it: seeded random Assign / Release sequences (re-assigning live VMs and
// releasing unknown ones included) must pick the probe loop's server at
// every step, and each new assignment must cost exactly one probe. After
// every operation the touched VM's server (ServerFor and HasStream on
// every server), num_assigned, and every server's stream count and
// checkpoint demand (exactly: the same additions and subtractions in the
// same order) must match the map model; every 1,000 steps, so must every
// VM's server.
TEST(BackupPoolTest, IndexMatchesProbeLoopReferenceModel) {
  for (const int max_vms : {1, 2, 3, 40}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "max_vms " << max_vms << " seed "
                                      << seed);
      BackupPoolConfig config;
      config.max_vms_per_server = max_vms;
      EventCostProfiler profiler;
      BackupPool pool(config, nullptr, nullptr, &profiler);
      ProbeLoopModel model(max_vms);
      std::mt19937_64 rng(seed);
      std::vector<int> live;
      int next_vm = 1;
      int64_t assignments = 0;
      const auto expect_vm = [&](int vm, int step) {
        const size_t expected = model.ServerOf(vm);
        const BackupServer* got = pool.ServerFor(NestedVmId(vm));
        if (expected == ProbeLoopModel::kNone) {
          ASSERT_EQ(got, nullptr) << "vm " << vm << " step " << step;
        } else {
          ASSERT_EQ(got, pool.servers()[expected].get())
              << "vm " << vm << " step " << step;
        }
        for (size_t i = 0; i < pool.servers().size(); ++i) {
          ASSERT_EQ(pool.servers()[i]->HasStream(NestedVmId(vm)), i == expected)
              << "vm " << vm << " server " << i << " step " << step;
        }
      };
      for (int step = 0; step < 5'000; ++step) {
        const uint64_t op = rng() % 20;
        const double demand = 0.5 + static_cast<double>(rng() % 997) / 100.0;
        int touched;
        if (op < 11 || live.empty()) {
          const int vm = next_vm++;
          const size_t expected = model.Assign(vm, demand);
          const BackupServer& got = pool.Assign(NestedVmId(vm), demand);
          ASSERT_LT(expected, pool.servers().size()) << "step " << step;
          ASSERT_EQ(got.id().ToString(),
                    pool.servers()[expected]->id().ToString())
              << "step " << step;
          live.push_back(vm);
          ++assignments;
          touched = vm;
        } else if (op < 19) {
          const size_t victim = rng() % live.size();
          touched = live[victim];
          model.Release(touched);
          pool.Release(NestedVmId(touched));
          live[victim] = live.back();
          live.pop_back();
        } else {
          // Re-assigning a live VM returns its server; releasing an unknown
          // VM is a no-op. Neither is an assignment.
          touched = live[rng() % live.size()];
          const size_t expected = model.Assign(touched, demand);
          ASSERT_EQ(pool.Assign(NestedVmId(touched), demand).id().ToString(),
                    pool.servers()[expected]->id().ToString())
              << "step " << step;
          pool.Release(NestedVmId(next_vm + 1'000'000));
          expect_vm(next_vm + 1'000'000, step);
        }
        ASSERT_EQ(static_cast<size_t>(pool.num_servers()), model.num_servers())
            << "step " << step;
        ASSERT_EQ(static_cast<size_t>(pool.num_assigned()),
                  model.num_assigned())
            << "step " << step;
        expect_vm(touched, step);
        for (size_t i = 0; i < model.num_servers(); ++i) {
          const BackupServer& server = *pool.servers()[i];
          ASSERT_EQ(static_cast<size_t>(server.num_streams()),
                    model.num_streams(i))
              << "server " << i << " step " << step;
          ASSERT_EQ(server.checkpoint_demand_mbps(), model.demand_mbps(i))
              << "server " << i << " step " << step;
        }
        if (step % 1'000 == 999) {
          for (int vm = 1; vm < next_vm; ++vm) {
            expect_vm(vm, step);
          }
        }
      }
      EXPECT_EQ(pool.num_assigned(), static_cast<int>(live.size()));
      EXPECT_EQ(profiler.stats(ProfileCategory::kBackupAssign).count,
                assignments);
      EXPECT_EQ(profiler.stat(ProfileStat::kBackupProbes), assignments);
    }
  }
}

}  // namespace
}  // namespace spotcheck
