#include "src/virt/activity_log.h"

#include <algorithm>

namespace spotcheck {
namespace {

SimDuration Clip(SimTime start, SimTime end, SimTime from, SimTime to) {
  const SimTime s = std::max(start, from);
  const SimTime e = std::min(end, to);
  return e > s ? e - s : SimDuration::Zero();
}

}  // namespace

void ActivityLog::Record(NestedVmId vm, SimTime start, SimTime end,
                         ActivityKind kind) {
  if (end <= start) {
    return;
  }
  VmRecord& record = vms_[vm];
  if (record.intervals.empty() && record.birth == SimTime() && start > SimTime()) {
    // Auto-birth at the first recorded interval if MarkBirth was never called.
    record.birth = start;
  }
  record.intervals.push_back({start, end, kind});
}

void ActivityLog::MarkBirth(NestedVmId vm, SimTime at) { vms_[vm].birth = at; }

void ActivityLog::MarkDeath(NestedVmId vm, SimTime at) { vms_[vm].death = at; }

SimDuration ActivityLog::Total(NestedVmId vm, ActivityKind kind, SimTime from,
                               SimTime to) const {
  const auto it = vms_.find(vm);
  if (it == vms_.end()) {
    return SimDuration::Zero();
  }
  SimDuration total = SimDuration::Zero();
  for (const ActivityInterval& interval : it->second.intervals) {
    if (interval.kind == kind) {
      total += Clip(interval.start, interval.end, from, to);
    }
  }
  return total;
}

SimDuration ActivityLog::Lifetime(NestedVmId vm, SimTime from, SimTime to) const {
  const auto it = vms_.find(vm);
  if (it == vms_.end()) {
    return SimDuration::Zero();
  }
  return Clip(it->second.birth, it->second.death, from, to);
}

double ActivityLog::MeanFraction(ActivityKind kind, SimTime from, SimTime to) const {
  double sum = 0.0;
  int64_t n = 0;
  for (const auto& [vm, record] : vms_) {
    const SimDuration life = Lifetime(vm, from, to);
    if (life <= SimDuration::Zero()) {
      continue;
    }
    sum += Total(vm, kind, from, to) / life;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

const std::vector<ActivityInterval>* ActivityLog::IntervalsFor(NestedVmId vm) const {
  const auto it = vms_.find(vm);
  return it == vms_.end() ? nullptr : &it->second.intervals;
}

}  // namespace spotcheck
