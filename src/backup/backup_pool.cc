#include "src/backup/backup_pool.h"

namespace spotcheck {

namespace {

// Marks an assignment on the server's "backup/<id>" track.
void TraceAssign(SpanTracer* tracer, const BackupServer& server, NestedVmId vm,
                 SimTime now) {
  if (tracer == nullptr) {
    return;
  }
  const TraceTrackId track = tracer->Track("backup/" + server.id().ToString());
  const SpanId mark = tracer->Instant(now, "backup.assign", "backup", track);
  tracer->AttrStr(mark, "vm", vm.ToString());
}

}  // namespace

void BackupPool::Provision(SimTime now) {
  servers_.push_back(std::make_unique<BackupServer>(
      ids_.Next(), config_.server_type, config_.perf, config_.max_vms_per_server));
  servers_.back()->set_restore_bandwidth_scale(restore_bandwidth_scale_);
  provisioned_at_.push_back(now);
  open_servers_.insert(static_cast<uint32_t>(servers_.size() - 1));
  MetricInc(servers_provisioned_metric_);
  if (tracer_ != nullptr) {
    tracer_->Instant(
        now, "backup.provision", "backup",
        tracer_->Track("backup/" + servers_.back()->id().ToString()));
  }
}

BackupServer& BackupPool::Assign(NestedVmId vm, double demand_mbps, SimTime now) {
  if (auto* existing = ServerFor(vm)) {
    return *existing;
  }
  ProfileScope scope(profiler_, ProfileCategory::kBackupAssign);
  // Round-robin over servers with room: take the first open index at or
  // after the cursor, wrapping around -- the server a cyclic scan that
  // skips full servers would reach, found in O(log servers). With none
  // open, provision one and leave the cursor where it is, as a full scan
  // would.
  ProfileAdd(profiler_, ProfileStat::kBackupProbes);
  uint32_t index = static_cast<uint32_t>(servers_.size());
  if (open_servers_.empty()) {
    Provision(now);
  } else {
    auto it = open_servers_.lower_bound(static_cast<uint32_t>(rr_cursor_));
    if (it == open_servers_.end()) {
      it = open_servers_.begin();
    }
    index = *it;
    rr_cursor_ = (index + 1) % servers_.size();
  }
  BackupServer& server = *servers_[index];
  server.AddStream(vm, demand_mbps);
  if (server.full()) {
    open_servers_.erase(index);
  }
  if (vm.value() >= assignment_.size()) {
    assignment_.resize(vm.value() + 1, kUnassigned);
  }
  assignment_[vm.value()] = index;
  ++num_assigned_;
  RecordAssignment(server);
  TraceAssign(tracer_, server, vm, now);
  return server;
}

void BackupPool::RecordAssignment(const BackupServer& server) {
  MetricInc(assignments_metric_);
  MetricSet(assigned_vms_metric_, static_cast<double>(num_assigned_));
  MetricObserve(checkpoint_load_metric_, server.CheckpointLoadFactor());
}

void BackupPool::Release(NestedVmId vm) {
  const uint32_t index = IndexOf(vm);
  if (index == kUnassigned) {
    return;
  }
  BackupServer& server = *servers_[index];
  server.RemoveStream(vm);
  if (!server.full()) {
    open_servers_.insert(index);
  }
  assignment_[vm.value()] = kUnassigned;
  --num_assigned_;
  MetricInc(releases_metric_);
  MetricSet(assigned_vms_metric_, static_cast<double>(num_assigned_));
}

BackupServer* BackupPool::ServerFor(NestedVmId vm) {
  const uint32_t index = IndexOf(vm);
  return index == kUnassigned ? nullptr : servers_[index].get();
}

const BackupServer* BackupPool::ServerFor(NestedVmId vm) const {
  const uint32_t index = IndexOf(vm);
  return index == kUnassigned ? nullptr : servers_[index].get();
}

double BackupPool::TotalHourlyCost() const {
  double total = 0.0;
  for (const auto& server : servers_) {
    total += server->hourly_cost();
  }
  return total;
}

double BackupPool::TotalAccruedCost(SimTime now) const {
  double total = 0.0;
  for (size_t i = 0; i < servers_.size(); ++i) {
    const SimDuration held = now - provisioned_at_[i];
    if (held > SimDuration::Zero()) {
      total += servers_[i]->hourly_cost() * held.hours();
    }
  }
  return total;
}

}  // namespace spotcheck
