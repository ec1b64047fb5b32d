// Backup servers for bounded-time migration (Sections 3.2, 5).
//
// Each backup server continuously receives checkpointed memory pages from the
// nested VMs assigned to it, and serves memory images back during
// restorations. The paper tunes backup servers for this workload (ext4
// write-back journalling, noatime, large dirty ratios, fadvise hints,
// per-VM tc bandwidth throttling) and finds that one m3.xlarge can host
// 35-40 VMs before checkpoint traffic saturates it (Figure 7), making the
// amortized backup cost per VM under one cent per hour.
//
// This model exposes exactly the quantities the evaluation depends on:
//   * checkpoint load factor: total checkpoint demand vs. ingest capacity,
//     which the workload models translate into response-time/throughput
//     degradation (Figure 7);
//   * per-VM restore bandwidth as a function of restore kind (sequential
//     full reads vs. random lazy reads), the fadvise prefetch optimization,
//     and the number of concurrent restorations (Figures 8 and 9).

#ifndef SRC_BACKUP_BACKUP_SERVER_H_
#define SRC_BACKUP_BACKUP_SERVER_H_

#include <cstddef>
#include <vector>

#include "src/common/ids.h"
#include "src/market/instance_types.h"
#include "src/virt/migration_models.h"
#include "src/virt/restore_bandwidth.h"

namespace spotcheck {

struct BackupServerPerf {
  double network_mbps = 125.0;     // 1 Gbps NIC
  double disk_write_mbps = 180.0;  // absorbed by page cache + write-back journal

  // Sequential reads (full restores). "Optimized" = fadvise(WILLNEED,
  // SEQUENTIAL) preloading into the page cache during the warning period,
  // which lets the m3.xlarge's local SSDs run near their raw rate.
  double seq_read_mbps_unopt = 100.0;
  double seq_read_mbps_opt = 400.0;
  double seq_thrash_unopt = 0.12;  // throughput loss per extra concurrent stream
  double seq_thrash_opt = 0.02;

  // Random reads (lazy restores). "Optimized" = fadvise(WILLNEED, RANDOM)
  // plus the background prefetcher batching reads for the SSDs.
  double rand_read_mbps_unopt = 60.0;
  double rand_read_mbps_opt = 300.0;
  double rand_thrash_unopt = 0.20;
  double rand_thrash_opt = 0.02;
};

class BackupServer : public RestoreBandwidthSource {
 public:
  BackupServer(BackupServerId id, InstanceType type, BackupServerPerf perf,
               int max_vms);
  BackupServer(BackupServerId id)
      : BackupServer(id, InstanceType::kM3Xlarge, BackupServerPerf{}, 40) {}

  BackupServerId id() const { return id_; }
  InstanceType type() const { return type_; }
  double hourly_cost() const { return OnDemandPrice(type_); }
  int max_vms() const { return max_vms_; }

  // --- Checkpoint streams -------------------------------------------------

  // Registers the continuous checkpoint stream of a nested VM; fails (false)
  // when the server is at capacity or the VM is already registered.
  bool AddStream(NestedVmId vm, double demand_mbps);
  void RemoveStream(NestedVmId vm);
  bool HasStream(NestedVmId vm) const { return IndexOf(vm) < streams_.size(); }
  int num_streams() const { return static_cast<int>(streams_.size()); }
  bool full() const { return num_streams() >= max_vms_; }
  double checkpoint_demand_mbps() const { return demand_mbps_; }

  // Demand / ingest-capacity ratio. Values above ~1 mean checkpoint writes
  // queue up and resident VMs see degraded performance (Figure 7).
  double CheckpointLoadFactor() const;

  // Amortized backup cost per hosted VM ($/hr); the paper's headline value is
  // $0.28 / 40 = $0.007.
  double AmortizedCostPerVm() const;

  // --- Restorations ---------------------------------------------------------

  void BeginRestore(NestedVmId vm);
  void EndRestore(NestedVmId vm);
  int active_restores() const { return active_restores_; }

  // Concurrent restores split the server's disk and NIC bandwidth equally
  // (the paper's per-VM tc throttling), so one restore cannot starve others.
  double PerVmRestoreBandwidth(RestoreKind kind, bool optimized,
                               int concurrent) const override;

  // Fault-injection knob (src/chaos): multiplies the restore bandwidth this
  // server delivers (0 < scale <= 1 models a degraded/congested server; 1.0
  // restores nominal performance).
  void set_restore_bandwidth_scale(double scale) {
    restore_bandwidth_scale_ = scale;
  }
  double restore_bandwidth_scale() const { return restore_bandwidth_scale_; }

  const BackupServerPerf& perf() const { return perf_; }

 private:
  struct Stream {
    NestedVmId vm;
    double demand_mbps;
  };
  // Position of `vm`'s stream; streams_.size() when it has none.
  size_t IndexOf(NestedVmId vm) const;

  BackupServerId id_;
  InstanceType type_;
  BackupServerPerf perf_;
  int max_vms_;
  // At most max_vms_ streams, unordered: a flat scan beats a tree at this
  // size, and removal moves the last stream into the gap.
  std::vector<Stream> streams_;
  double demand_mbps_ = 0.0;
  int active_restores_ = 0;
  double restore_bandwidth_scale_ = 1.0;
};

}  // namespace spotcheck

#endif  // SRC_BACKUP_BACKUP_SERVER_H_
