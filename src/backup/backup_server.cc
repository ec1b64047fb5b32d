#include "src/backup/backup_server.h"

#include <algorithm>

namespace spotcheck {

BackupServer::BackupServer(BackupServerId id, InstanceType type,
                           BackupServerPerf perf, int max_vms)
    : id_(id), type_(type), perf_(perf), max_vms_(max_vms) {}

size_t BackupServer::IndexOf(NestedVmId vm) const {
  size_t i = 0;
  while (i < streams_.size() && streams_[i].vm != vm) {
    ++i;
  }
  return i;
}

bool BackupServer::AddStream(NestedVmId vm, double demand_mbps) {
  if (full() || HasStream(vm)) {
    return false;
  }
  if (streams_.empty()) {
    streams_.reserve(static_cast<size_t>(max_vms_));
  }
  streams_.push_back({vm, demand_mbps});
  demand_mbps_ += demand_mbps;
  return true;
}

void BackupServer::RemoveStream(NestedVmId vm) {
  const size_t i = IndexOf(vm);
  if (i == streams_.size()) {
    return;
  }
  demand_mbps_ -= streams_[i].demand_mbps;
  streams_[i] = streams_.back();
  streams_.pop_back();
}

double BackupServer::CheckpointLoadFactor() const {
  const double capacity = std::min(perf_.network_mbps, perf_.disk_write_mbps);
  return capacity > 0.0 ? demand_mbps_ / capacity : 0.0;
}

double BackupServer::AmortizedCostPerVm() const {
  const int n = std::max(num_streams(), 1);
  return hourly_cost() / static_cast<double>(n);
}

void BackupServer::BeginRestore(NestedVmId vm) {
  (void)vm;
  ++active_restores_;
}

void BackupServer::EndRestore(NestedVmId vm) {
  (void)vm;
  active_restores_ = std::max(0, active_restores_ - 1);
}

double BackupServer::PerVmRestoreBandwidth(RestoreKind kind, bool optimized,
                                           int concurrent) const {
  const int n = std::max(concurrent, 1);
  double disk_bw;
  double thrash;
  if (kind == RestoreKind::kFull) {
    disk_bw = optimized ? perf_.seq_read_mbps_opt : perf_.seq_read_mbps_unopt;
    thrash = optimized ? perf_.seq_thrash_opt : perf_.seq_thrash_unopt;
  } else {
    disk_bw = optimized ? perf_.rand_read_mbps_opt : perf_.rand_read_mbps_unopt;
    thrash = optimized ? perf_.rand_thrash_opt : perf_.rand_thrash_unopt;
  }
  // Concurrent streams thrash the disk (seeks interleave); fadvise batching
  // keeps the loss small. The aggregate is then split across streams, and
  // the NIC caps the total.
  const double disk_aggregate = disk_bw / (1.0 + thrash * static_cast<double>(n - 1));
  const double per_vm_disk = disk_aggregate / static_cast<double>(n);
  const double per_vm_net = perf_.network_mbps / static_cast<double>(n);
  return std::min(per_vm_disk, per_vm_net) * restore_bandwidth_scale_;
}

}  // namespace spotcheck
