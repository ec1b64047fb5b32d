#include "tests/oracles/checkpoint_stream.h"

#include <algorithm>

namespace spotcheck {

CheckpointStream::CheckpointStream(Simulator* sim, CheckpointStreamConfig config)
    : sim_(sim), config_(config), interval_(config.base_interval) {}

CheckpointStream::CheckpointStream(Simulator* sim, CheckpointStreamConfig config,
                                   MemoryImage* image)
    : sim_(sim), config_(config), image_(image), interval_(config.base_interval) {}

void CheckpointStream::AccrueDirt(SimDuration dt) {
  if (image_ != nullptr) {
    image_->Run(dt, config_.dirty_rate_mbps);
    const std::vector<int64_t> pages = image_->CollectDirty();
    stale_mb_ += static_cast<double>(pages.size()) *
                 MemoryImage::kPageSizeKb / 1024.0;
  } else {
    stale_mb_ += config_.dirty_rate_mbps * dt.seconds();
  }
}

void CheckpointStream::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  last_tick_ = sim_->Now();
  Arm();
}

void CheckpointStream::Stop() {
  running_ = false;
  ++run_;
}

void CheckpointStream::EnterRampMode() { ramping_ = true; }

void CheckpointStream::Arm() {
  sim_->ScheduleAfter(interval_, [this, run = run_] {
    if (run == run_) {
      Tick();
    }
  });
}

void CheckpointStream::Tick() {
  const SimDuration dt = sim_->Now() - last_tick_;
  last_tick_ = sim_->Now();
  ++epochs_;

  // Dirt accrues while the previous epoch shipped; the flush drains at link
  // bandwidth for the whole epoch (background process, VM keeps running).
  AccrueDirt(dt);
  max_stale_mb_ = std::max(max_stale_mb_, stale_mb_);
  const double drained = std::min(stale_mb_, config_.bandwidth_mbps * dt.seconds());
  stale_mb_ -= drained;
  shipped_mb_ += drained;

  if (ramping_) {
    interval_ = std::max(config_.min_interval, interval_ / 2.0);
  }
  Arm();
}

SimDuration CheckpointStream::FinalCommit() {
  // Account the dirt accrued since the last epoch, then pause and drain.
  const SimDuration dt = sim_->Now() - last_tick_;
  AccrueDirt(dt);
  max_stale_mb_ = std::max(max_stale_mb_, stale_mb_);
  const SimDuration pause =
      SimDuration::Seconds(stale_mb_ / config_.bandwidth_mbps);
  shipped_mb_ += stale_mb_;
  stale_mb_ = 0.0;
  Stop();
  return pause;
}

}  // namespace spotcheck
