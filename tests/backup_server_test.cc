#include "src/backup/backup_server.h"

#include <gtest/gtest.h>

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
// indexed the servers with room. Servers are plain stream counts.
class ProbeLoopModel {
 public:
  explicit ProbeLoopModel(int max_vms) : max_vms_(max_vms) {}

  // Returns the index of the server `vm` lands on.
  size_t Assign(int vm) {
    if (const auto it = assignment_.find(vm); it != assignment_.end()) {
      return it->second;
    }
    for (size_t probe = 0; probe < streams_.size(); ++probe) {
      const size_t candidate = rr_cursor_ % streams_.size();
      rr_cursor_ = (rr_cursor_ + 1) % streams_.size();
      if (streams_[candidate] < max_vms_) {
        ++streams_[candidate];
        return assignment_[vm] = candidate;
      }
    }
    streams_.push_back(1);
    return assignment_[vm] = streams_.size() - 1;
  }

  void Release(int vm) {
    if (const auto it = assignment_.find(vm); it != assignment_.end()) {
      --streams_[it->second];
      assignment_.erase(it);
    }
  }

  size_t num_servers() const { return streams_.size(); }

 private:
  int max_vms_;
  std::vector<int> streams_;
  std::map<int, size_t> assignment_;
  size_t rr_cursor_ = 0;
};

// Differential check of the open-server index: seeded random Assign /
// Release sequences (re-assigning live VMs and releasing unknown ones
// included) must pick the probe loop's server at every step, and each new
// assignment must cost exactly one probe.
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
      for (int step = 0; step < 5'000; ++step) {
        const uint64_t op = rng() % 20;
        if (op < 11 || live.empty()) {
          const int vm = next_vm++;
          const size_t expected = model.Assign(vm);
          const BackupServer& got = pool.Assign(NestedVmId(vm), 3.0);
          ASSERT_LT(expected, pool.servers().size()) << "step " << step;
          ASSERT_EQ(got.id().ToString(),
                    pool.servers()[expected]->id().ToString())
              << "step " << step;
          live.push_back(vm);
          ++assignments;
        } else if (op < 19) {
          const size_t victim = rng() % live.size();
          model.Release(live[victim]);
          pool.Release(NestedVmId(live[victim]));
          live[victim] = live.back();
          live.pop_back();
        } else {
          // Re-assigning a live VM returns its server; releasing an unknown
          // VM is a no-op. Neither is an assignment.
          const int vm = live[rng() % live.size()];
          const size_t expected = model.Assign(vm);
          ASSERT_EQ(pool.Assign(NestedVmId(vm), 3.0).id().ToString(),
                    pool.servers()[expected]->id().ToString())
              << "step " << step;
          pool.Release(NestedVmId(next_vm + 1'000'000));
        }
        ASSERT_EQ(static_cast<size_t>(pool.num_servers()), model.num_servers())
            << "step " << step;
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
