#include "src/virt/activity_log.h"

#include <algorithm>

namespace spotcheck {
namespace {

SimDuration Clip(SimTime start, SimTime end, SimTime from, SimTime to) {
  const SimTime s = std::max(start, from);
  const SimTime e = std::min(end, to);
  return e > s ? e - s : SimDuration::Zero();
}

SimDuration TotalOf(const std::vector<ActivityInterval>& intervals,
                    ActivityKind kind, SimTime from, SimTime to) {
  SimDuration total = SimDuration::Zero();
  for (const ActivityInterval& interval : intervals) {
    if (interval.kind == kind) {
      total += Clip(interval.start, interval.end, from, to);
    }
  }
  return total;
}

}  // namespace

ActivityLog::VmRecord& ActivityLog::RecordFor(NestedVmId vm) {
  return vms_.FindOrEmplace(vm);
}

void ActivityLog::Record(NestedVmId vm, SimTime start, SimTime end,
                         ActivityKind kind) {
  if (end <= start) {
    return;
  }
  VmRecord& record = RecordFor(vm);
  if (record.intervals.empty() && record.birth == SimTime() && start > SimTime()) {
    // Auto-birth at the first recorded interval if MarkBirth was never called.
    record.birth = start;
  }
  record.intervals.push_back({start, end, kind});
}

void ActivityLog::MarkBirth(NestedVmId vm, SimTime at) {
  RecordFor(vm).birth = at;
}

void ActivityLog::MarkDeath(NestedVmId vm, SimTime at) {
  RecordFor(vm).death = at;
}

SimDuration ActivityLog::Total(NestedVmId vm, ActivityKind kind, SimTime from,
                               SimTime to) const {
  const VmRecord* record = vms_.Find(vm);
  return record == nullptr ? SimDuration::Zero()
                           : TotalOf(record->intervals, kind, from, to);
}

SimDuration ActivityLog::Lifetime(NestedVmId vm, SimTime from, SimTime to) const {
  const VmRecord* record = vms_.Find(vm);
  return record == nullptr ? SimDuration::Zero()
                           : Clip(record->birth, record->death, from, to);
}

double ActivityLog::MeanFraction(ActivityKind kind, SimTime from, SimTime to) const {
  double sum = 0.0;
  int64_t n = 0;
  vms_.ForEach([&](NestedVmId, const VmRecord& record) {
    const SimDuration life = Clip(record.birth, record.death, from, to);
    if (life <= SimDuration::Zero()) {
      return;
    }
    sum += TotalOf(record.intervals, kind, from, to) / life;
    ++n;
  });
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

const std::vector<ActivityInterval>* ActivityLog::IntervalsFor(NestedVmId vm) const {
  const VmRecord* record = vms_.Find(vm);
  return record == nullptr ? nullptr : &record->intervals;
}

}  // namespace spotcheck
