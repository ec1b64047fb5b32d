// Per-VM availability accounting.
//
// The evaluation (Figures 11 and 12) reports the fraction of time a nested VM
// was down (unavailable) and the fraction of time it ran with degraded
// performance (during checkpoint-frequency ramps and lazy restores). The
// ActivityLog records labelled intervals per VM and answers aggregate
// queries over an observation window.
//
// Records live in a FleetTable keyed by VM id: O(1) lookups, and
// MeanFraction sums in ascending id order, the order its pinned outputs
// were computed in. A VM is known only once it has been recorded, born or
// killed: a default record (birth 0, never dead) would count as alive for
// the whole window.

#ifndef SRC_VIRT_ACTIVITY_LOG_H_
#define SRC_VIRT_ACTIVITY_LOG_H_

#include <cstdint>
#include <vector>

#include "src/common/fleet_store.h"
#include "src/common/ids.h"
#include "src/common/time.h"

namespace spotcheck {

enum class ActivityKind : uint8_t { kDowntime, kDegraded };

struct ActivityInterval {
  SimTime start;
  SimTime end;
  ActivityKind kind;
};

class ActivityLog {
 public:
  // Records a closed interval [start, end); zero/negative lengths ignored.
  void Record(NestedVmId vm, SimTime start, SimTime end, ActivityKind kind);

  // Marks the VM as observed from `start` (its allocation time). Needed so
  // fractions are relative to the VM's lifetime inside the window.
  void MarkBirth(NestedVmId vm, SimTime at);
  void MarkDeath(NestedVmId vm, SimTime at);

  // Total time of `kind` for one VM clipped to [from, to).
  SimDuration Total(NestedVmId vm, ActivityKind kind, SimTime from, SimTime to) const;

  // Observed lifetime of the VM clipped to [from, to).
  SimDuration Lifetime(NestedVmId vm, SimTime from, SimTime to) const;

  // Mean over all VMs of (time of `kind` / lifetime), in [0, 1].
  double MeanFraction(ActivityKind kind, SimTime from, SimTime to) const;

  // The VM's recorded intervals, in recording order; null for an unknown VM.
  const std::vector<ActivityInterval>* IntervalsFor(NestedVmId vm) const;

 private:
  struct VmRecord {
    SimTime birth;
    SimTime death = SimTime::Max();
    std::vector<ActivityInterval> intervals;
  };
  // The VM's record, created empty on first use.
  VmRecord& RecordFor(NestedVmId vm);

  FleetTable<NestedVmTag, VmRecord> vms_;
};

}  // namespace spotcheck

#endif  // SRC_VIRT_ACTIVITY_LOG_H_
