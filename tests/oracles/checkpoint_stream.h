// Continuous memory checkpointing (Sections 3.2 and 5).
//
// Bounded-time migration rests on a background process that continually
// flushes a nested VM's dirty memory pages to its backup server, keeping the
// stale (un-checkpointed) state below a threshold chosen so a final commit
// fits within the time bound. SpotCheck's improvement over Yank is the
// checkpoint-frequency ramp: after a revocation warning, the flush interval
// shrinks geometrically, so by the deadline only milliseconds of dirty state
// remain to commit while the VM is paused.
//
// CheckpointStream is the event-driven counterpart of PlanBoundedTime(): it
// runs real flush epochs on the simulation clock. It is a test oracle: no
// shipped binary runs it. Tests use it to validate the analytic plan (the
// stale high-water mark never exceeds the threshold; the ramp shrinks the
// final commit by orders of magnitude).

#ifndef TESTS_ORACLES_CHECKPOINT_STREAM_H_
#define TESTS_ORACLES_CHECKPOINT_STREAM_H_

#include <cstdint>

#include "src/common/time.h"
#include "src/sim/simulator.h"
#include "tests/oracles/memory_image.h"

namespace spotcheck {

struct CheckpointStreamConfig {
  double dirty_rate_mbps = 10.0;
  double bandwidth_mbps = 125.0;  // VM -> backup server
  // Migration time bound; defines the stale-state threshold.
  SimDuration bound = SimDuration::Seconds(30);
  // Flush epoch during normal operation.
  SimDuration base_interval = SimDuration::Seconds(5);
  // Floor of the warning-time ramp.
  SimDuration min_interval = SimDuration::Millis(100);
};

class CheckpointStream {
 public:
  CheckpointStream(Simulator* sim, CheckpointStreamConfig config);

  // Page-level variant: epochs drive `image` (which must outlive the
  // stream) and ship the pages its dirty tracking collects, so writes that
  // re-dirty the same hot page within an epoch ship once -- the fluid model
  // above is an upper bound on this.
  CheckpointStream(Simulator* sim, CheckpointStreamConfig config,
                   MemoryImage* image);

  // Begins periodic flush epochs (idempotent).
  void Start();
  // Ends the flush epochs. The tick already queued still fires, as a no-op,
  // so a Start() right after never runs two tick chains, and the stream
  // must outlive the simulator's next run.
  void Stop();

  // Revocation warning received: each subsequent epoch halves the flush
  // interval down to min_interval.
  void EnterRampMode();

  // Pauses the VM and commits everything still stale; returns the pause
  // duration (stale / bandwidth). Stops the stream.
  SimDuration FinalCommit();

  // Maximum stale state the bound tolerates.
  double threshold_mb() const {
    return config_.bound.seconds() * config_.bandwidth_mbps;
  }

  double stale_mb() const { return stale_mb_; }
  double max_stale_mb() const { return max_stale_mb_; }
  int64_t epochs() const { return epochs_; }
  double shipped_mb() const { return shipped_mb_; }
  bool running() const { return running_; }
  SimDuration current_interval() const { return interval_; }

 private:
  void Tick();
  void Arm();

  // Accrues `dt` of guest dirtying into the stale set.
  void AccrueDirt(SimDuration dt);

  Simulator* sim_;
  CheckpointStreamConfig config_;
  MemoryImage* image_ = nullptr;  // optional page-level backing
  SimDuration interval_;
  SimTime last_tick_;
  bool running_ = false;
  bool ramping_ = false;
  // Bumped by Stop(); an armed tick runs only if it was armed in this run.
  uint64_t run_ = 0;
  double stale_mb_ = 0.0;
  double max_stale_mb_ = 0.0;
  double shipped_mb_ = 0.0;
  int64_t epochs_ = 0;
};

}  // namespace spotcheck

#endif  // TESTS_ORACLES_CHECKPOINT_STREAM_H_
