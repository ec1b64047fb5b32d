// Backup server pool (Section 4.2).
//
// SpotCheck maps nested VMs in spot pools to backup servers round-robin, and
// distributes VMs of one spot pool across multiple backup servers so that a
// pool-wide revocation storm does not concentrate on a single backup server.
// When every backup server is fully utilized, the pool provisions a new one.

#ifndef SRC_BACKUP_BACKUP_POOL_H_
#define SRC_BACKUP_BACKUP_POOL_H_

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/backup/backup_server.h"
#include "src/common/ids.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace spotcheck {

struct BackupPoolConfig {
  InstanceType server_type = InstanceType::kM3Xlarge;
  BackupServerPerf perf;
  // Section 6.1: at most 35-40 VMs per backup server keeps degradation
  // negligible during normal operation.
  int max_vms_per_server = 40;
};

class BackupPool {
 public:
  // `metrics` (optional) registers the backup.* instruments; `tracer`
  // (optional) marks provisioning/assignment on each server's
  // "backup/<id>" track; `profiler` (optional) times stream placement
  // (kBackupAssign) and counts one probe per assignment (kBackupProbes).
  // All must outlive the pool.
  explicit BackupPool(BackupPoolConfig config = {},
                      MetricsRegistry* metrics = nullptr,
                      SpanTracer* tracer = nullptr,
                      EventCostProfiler* profiler = nullptr)
      : config_(config), tracer_(tracer), profiler_(profiler) {
    if (metrics != nullptr) {
      servers_provisioned_metric_ = &metrics->Counter("backup.servers_provisioned");
      assignments_metric_ = &metrics->Counter("backup.assignments");
      releases_metric_ = &metrics->Counter("backup.releases");
      assigned_vms_metric_ = &metrics->Gauge("backup.assigned_vms");
      checkpoint_load_metric_ =
          &metrics->Histogram("backup.checkpoint_load_factor", 0.0, 2.0, 40);
    }
  }

  // Assigns `vm` to a backup server (provisioning a new one if all are
  // full) and registers its checkpoint stream. Round-robin across
  // non-full servers spreads both checkpoint load and revocation risk.
  // O(log servers): an ordered index of servers with room names the next
  // one directly. `now` timestamps any newly provisioned server for cost
  // accounting.
  BackupServer& Assign(NestedVmId vm, double demand_mbps,
                       SimTime now = SimTime());

  // Removes the VM's stream; the server is retained for reuse.
  void Release(NestedVmId vm);

  // Server currently backing `vm` (nullptr if unassigned).
  BackupServer* ServerFor(NestedVmId vm);
  const BackupServer* ServerFor(NestedVmId vm) const;

  int num_servers() const { return static_cast<int>(servers_.size()); }
  int num_assigned() const { return static_cast<int>(assignment_.size()); }
  const std::vector<std::unique_ptr<BackupServer>>& servers() const {
    return servers_;
  }

  // Aggregate $/hr for all provisioned backup servers.
  double TotalHourlyCost() const;

  // Total $ spent on backup servers from their provisioning until `now`.
  // Backup servers are retained once provisioned (the paper holds them as
  // long-lived on-demand instances).
  double TotalAccruedCost(SimTime now) const;

  // Fault-injection knob (src/chaos): scales restore bandwidth on every
  // server, current and future, until reset to 1.0.
  void SetRestoreBandwidthScale(double scale) {
    restore_bandwidth_scale_ = scale;
    for (auto& server : servers_) {
      server->set_restore_bandwidth_scale(scale);
    }
  }
  double restore_bandwidth_scale() const { return restore_bandwidth_scale_; }

 private:
  void Provision(SimTime now);
  void RecordAssignment(const BackupServer& server);

  BackupPoolConfig config_;
  IdGenerator<BackupServerTag> ids_;
  std::vector<std::unique_ptr<BackupServer>> servers_;
  std::vector<SimTime> provisioned_at_;  // parallel to servers_
  std::unordered_map<NestedVmId, uint32_t> assignment_;  // VM -> server index
  // Indices of servers with room, ordered so Assign can take the first one
  // at or after rr_cursor_.
  std::set<uint32_t> open_servers_;
  size_t rr_cursor_ = 0;
  double restore_bandwidth_scale_ = 1.0;
  SpanTracer* tracer_ = nullptr;
  EventCostProfiler* profiler_ = nullptr;

  // Observability instruments; all null without a registry.
  MetricCounter* servers_provisioned_metric_ = nullptr;
  MetricCounter* assignments_metric_ = nullptr;
  MetricCounter* releases_metric_ = nullptr;
  MetricGauge* assigned_vms_metric_ = nullptr;
  MetricHistogram* checkpoint_load_metric_ = nullptr;
};

}  // namespace spotcheck

#endif  // SRC_BACKUP_BACKUP_POOL_H_
