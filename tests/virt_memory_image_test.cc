#include "tests/oracles/memory_image.h"

#include <gtest/gtest.h>

#include <set>

namespace spotcheck {
namespace {

MemoryImage MakeImage(double memory_mb = 256.0, double wss_mb = 64.0) {
  return MemoryImage(memory_mb, wss_mb, Rng(42));
}

TEST(MemoryImageTest, Geometry) {
  const MemoryImage image = MakeImage(256.0, 64.0);
  EXPECT_EQ(image.num_pages(), 256 * 1024 / 4);
  EXPECT_EQ(image.wss_pages(), 64 * 1024 / 4);
  EXPECT_NEAR(image.memory_mb(), 256.0, 1e-9);
}

TEST(MemoryImageTest, RunDirtiesAtTheConfiguredRate) {
  MemoryImage image = MakeImage();
  const int64_t writes = image.Run(SimDuration::Seconds(1), 10.0);
  // 10 MB/s of 4 KB pages = 2560 writes/s.
  EXPECT_EQ(writes, 2560);
  EXPECT_EQ(image.total_writes(), 2560);
  // Distinct dirty pages <= writes (re-dirtying collapses).
  EXPECT_LE(image.dirty_pages(), 2560);
  EXPECT_GT(image.dirty_pages(), 1000);  // mostly distinct early on
}

TEST(MemoryImageTest, DirtySetSaturatesNearTheWorkingSet) {
  // The fluid model's hidden assumption, validated: sustained dirtying
  // cannot exceed the working set (plus the 10% scatter tail).
  MemoryImage image = MakeImage(256.0, 16.0);
  image.Run(SimDuration::Seconds(60), 20.0);  // 75x the WSS in write volume
  // The whole WSS is dirty plus the scatter tail's coverage, but nowhere
  // near the 1200 MB of write volume: re-dirtying collapses.
  EXPECT_GE(image.dirty_mb(), 16.0);
  EXPECT_LT(image.dirty_mb(), 150.0);
  EXPECT_LE(image.dirty_mb(), image.memory_mb());
}

TEST(MemoryImageTest, CollectDirtyClearsTracking) {
  MemoryImage image = MakeImage();
  image.Run(SimDuration::Seconds(1), 10.0);
  const int64_t dirty_before = image.dirty_pages();
  const std::vector<int64_t> collected = image.CollectDirty();
  EXPECT_EQ(static_cast<int64_t>(collected.size()), dirty_before);
  EXPECT_EQ(image.dirty_pages(), 0);
  // Pages are unique and in range.
  std::set<int64_t> unique(collected.begin(), collected.end());
  EXPECT_EQ(unique.size(), collected.size());
  EXPECT_GE(*unique.begin(), 0);
  EXPECT_LT(*unique.rbegin(), image.num_pages());
}

TEST(MemoryImageTest, EpochsBoundTheStaleSetLikeTheCheckpointer) {
  // Checkpointing every second keeps the per-epoch dirty set near
  // rate x interval, independent of how long the VM runs.
  MemoryImage image = MakeImage(1024.0, 256.0);
  for (int epoch = 0; epoch < 30; ++epoch) {
    image.Run(SimDuration::Seconds(1), 10.0);
    const double stale = image.dirty_mb();
    EXPECT_LE(stale, 10.0 + 0.5);
    image.CollectDirty();
  }
}

TEST(MemoryImageTest, WritesChangeContentAndDigest) {
  MemoryImage a = MakeImage();
  MemoryImage b = MakeImage();
  EXPECT_EQ(a.Digest(), b.Digest());  // same seed, same contents
  a.Run(SimDuration::Seconds(1), 5.0);
  EXPECT_NE(a.Digest(), b.Digest());
  b.Run(SimDuration::Seconds(1), 5.0);  // identical deterministic stream
  EXPECT_EQ(a.Digest(), b.Digest());
}

}  // namespace
}  // namespace spotcheck
