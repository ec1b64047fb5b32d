#include "tests/oracles/checkpoint_stream.h"

#include <gtest/gtest.h>

#include "src/virt/migration_models.h"

namespace spotcheck {
namespace {

TEST(CheckpointStreamTest, StaleStaysBelowThresholdDuringNormalOperation) {
  Simulator sim;
  CheckpointStreamConfig config;
  config.dirty_rate_mbps = 20.0;
  config.bandwidth_mbps = 125.0;
  CheckpointStream stream(&sim, config);
  stream.Start();
  sim.RunUntil(SimTime() + SimDuration::Hours(1));
  // The invariant bounded-time migration rests on: stale state never exceeds
  // what a commit can flush within the bound.
  EXPECT_LE(stream.max_stale_mb(), stream.threshold_mb());
  EXPECT_GT(stream.epochs(), 0);
  // Everything dirtied was eventually shipped (modulo the last open epoch).
  EXPECT_NEAR(stream.shipped_mb() + stream.stale_mb(), 20.0 * 3600.0,
              20.0 * config.base_interval.seconds() + 1e-6);
}

TEST(CheckpointStreamTest, StaleBoundedByDirtyPerEpoch) {
  Simulator sim;
  CheckpointStreamConfig config;
  config.dirty_rate_mbps = 10.0;
  config.bandwidth_mbps = 125.0;
  config.base_interval = SimDuration::Seconds(5);
  CheckpointStream stream(&sim, config);
  stream.Start();
  sim.RunUntil(SimTime() + SimDuration::Minutes(10));
  // With bandwidth >> dirty rate, the stale set is at most one epoch's dirt.
  EXPECT_LE(stream.max_stale_mb(), 10.0 * 5.0 + 1e-9);
}

TEST(CheckpointStreamTest, FinalCommitWithoutRampTakesSeconds) {
  Simulator sim;
  CheckpointStreamConfig config;
  config.dirty_rate_mbps = 50.0;
  config.base_interval = SimDuration::Seconds(5);
  CheckpointStream stream(&sim, config);
  stream.Start();
  sim.RunUntil(SimTime() + SimDuration::Seconds(62.5));  // mid-epoch
  const SimDuration pause = stream.FinalCommit();
  // Up to one epoch of dirt at 50 MB/s over a 125 MB/s link: ~1-2 s pause.
  EXPECT_GT(pause.seconds(), 0.1);
  EXPECT_LT(pause.seconds(), 3.0);
  EXPECT_FALSE(stream.running());
  EXPECT_EQ(stream.stale_mb(), 0.0);
}

TEST(CheckpointStreamTest, RampShrinksIntervalToFloor) {
  Simulator sim;
  CheckpointStreamConfig config;
  config.base_interval = SimDuration::Seconds(4);
  config.min_interval = SimDuration::Millis(100);
  CheckpointStream stream(&sim, config);
  stream.Start();
  sim.RunUntil(SimTime() + SimDuration::Seconds(20));
  stream.EnterRampMode();
  sim.RunUntil(SimTime() + SimDuration::Seconds(50));
  EXPECT_EQ(stream.current_interval(), config.min_interval);
}

TEST(CheckpointStreamTest, RampCutsFinalCommitByOrdersOfMagnitude) {
  // The SpotCheck-vs-Yank comparison at mechanism level: identical VMs, one
  // ramps during the 120 s warning, the other does not.
  CheckpointStreamConfig config;
  config.dirty_rate_mbps = 40.0;
  config.base_interval = SimDuration::Seconds(10);

  Simulator sim_yank;
  CheckpointStream yank(&sim_yank, config);
  yank.Start();
  // Yank pauses on the warning, which lands mid-epoch (here 5 s in).
  sim_yank.RunUntil(SimTime() + SimDuration::Seconds(305));
  const SimDuration yank_pause = yank.FinalCommit();

  Simulator sim_sc;
  CheckpointStream spotcheck(&sim_sc, config);
  spotcheck.Start();
  sim_sc.RunUntil(SimTime() + SimDuration::Seconds(300));
  spotcheck.EnterRampMode();
  sim_sc.RunUntil(SimTime() + SimDuration::Seconds(420));  // 120 s warning
  const SimDuration sc_pause = spotcheck.FinalCommit();

  EXPECT_LT(sc_pause.seconds(), 0.1);  // millisecond scale
  EXPECT_GT(yank_pause.seconds(), 10.0 * sc_pause.seconds());
}

TEST(CheckpointStreamTest, SimulatedCommitNeverExceedsAnalyticBound) {
  // Property link between the event-driven stream and PlanBoundedTime().
  for (double dirty : {5.0, 20.0, 60.0, 100.0}) {
    CheckpointStreamConfig config;
    config.dirty_rate_mbps = dirty;
    BoundedTimeParams analytic;
    analytic.dirty_rate_mbps = dirty;
    analytic.backup_bandwidth_mbps = config.bandwidth_mbps;
    analytic.bound = config.bound;
    const BoundedTimePlan plan = PlanBoundedTime(analytic);

    Simulator sim;
    CheckpointStream stream(&sim, config);
    stream.Start();
    sim.RunUntil(SimTime() + SimDuration::Minutes(30));
    const SimDuration pause = stream.FinalCommit();
    EXPECT_LE(pause, plan.unoptimized_commit_downtime + SimDuration::Millis(1))
        << "dirty=" << dirty;
  }
}

TEST(CheckpointStreamTest, PageBackedStreamShipsNoMoreThanFluidModel) {
  // Re-dirtying the hot working set collapses within an epoch, so the
  // page-level stream ships at most what the fluid model accrues.
  CheckpointStreamConfig config;
  config.dirty_rate_mbps = 30.0;
  config.base_interval = SimDuration::Seconds(5);

  Simulator fluid_sim;
  CheckpointStream fluid(&fluid_sim, config);
  fluid.Start();
  fluid_sim.RunUntil(SimTime() + SimDuration::Minutes(10));

  Simulator page_sim;
  MemoryImage image(1024.0, 32.0, Rng(9));  // small, hot working set
  CheckpointStream paged(&page_sim, config, &image);
  paged.Start();
  page_sim.RunUntil(SimTime() + SimDuration::Minutes(10));

  EXPECT_LT(paged.shipped_mb(), fluid.shipped_mb());
  EXPECT_GT(paged.shipped_mb(), 0.2 * fluid.shipped_mb());
  EXPECT_LE(paged.max_stale_mb(), paged.threshold_mb());
}

TEST(CheckpointStreamTest, PageBackedFinalCommitDrainsEverything) {
  CheckpointStreamConfig config;
  config.dirty_rate_mbps = 20.0;
  Simulator sim;
  MemoryImage image(512.0, 128.0, Rng(9));
  CheckpointStream stream(&sim, config, &image);
  stream.Start();
  sim.RunUntil(SimTime() + SimDuration::Seconds(63));
  const SimDuration pause = stream.FinalCommit();
  EXPECT_GE(pause, SimDuration::Zero());
  EXPECT_EQ(stream.stale_mb(), 0.0);
  EXPECT_EQ(image.dirty_pages(), 0);  // everything collected
}

TEST(CheckpointStreamTest, CheckpointingDoesNotAlterGuestMemory) {
  CheckpointStreamConfig config;
  Simulator sim;
  MemoryImage checkpointed(256.0, 64.0, Rng(9));
  MemoryImage reference(256.0, 64.0, Rng(9));
  CheckpointStream stream(&sim, config, &checkpointed);
  stream.Start();
  sim.RunUntil(SimTime() + SimDuration::Minutes(5));
  stream.FinalCommit();
  // Apply the identical deterministic write stream without checkpointing.
  SimTime cursor;
  while (cursor < SimTime() + SimDuration::Minutes(5)) {
    reference.Run(config.base_interval, config.dirty_rate_mbps);
    cursor += config.base_interval;
  }
  EXPECT_EQ(checkpointed.Digest(), reference.Digest());
}

TEST(CheckpointStreamTest, StopThenStartBeforeTheStaleTickRunsOneChain) {
  Simulator sim;
  CheckpointStreamConfig config;
  config.base_interval = SimDuration::Seconds(5);
  CheckpointStream stream(&sim, config);
  stream.Start();  // first tick armed for 5 s
  sim.RunUntil(SimTime() + SimDuration::Seconds(2));
  stream.Stop();
  stream.Start();  // re-armed for 7 s; the 5 s tick is stale
  sim.RunUntil(SimTime() + SimDuration::Seconds(52));
  // One chain ticks at 7, 12, ..., 52 s; a second would double the count.
  EXPECT_EQ(stream.epochs(), 10);
}

TEST(CheckpointStreamTest, StartStopIdempotent) {
  Simulator sim;
  CheckpointStream stream(&sim, CheckpointStreamConfig{});
  stream.Start();
  stream.Start();
  sim.RunUntil(SimTime() + SimDuration::Seconds(30));
  const int64_t epochs = stream.epochs();
  stream.Stop();
  stream.Stop();
  sim.RunUntil(SimTime() + SimDuration::Seconds(60));
  EXPECT_EQ(stream.epochs(), epochs);
}

}  // namespace
}  // namespace spotcheck
