// Structured controller event timeline.
//
// Operating a derivative cloud means explaining, after the fact, why a VM
// moved at 03:12 and what it cost. The controller appends one structured
// event per decision -- placements, warnings, drains, evacuations,
// repatriations, recoveries, losses -- queryable by VM or kind and
// exportable as CSV for offline analysis.
//
// Events stay typed until something reads them as text: recording builds
// no string, and RenderControllerEvent is the one place that does, for the
// CSV export and the run report alike.

#ifndef SRC_CORE_EVENT_LOG_H_
#define SRC_CORE_EVENT_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/market/instance_types.h"
#include "src/obs/run_report.h"

namespace spotcheck {

enum class ControllerEventKind : uint8_t {
  kVmRequested,
  kVmPlaced,
  kRevocationWarning,
  kEvacuationStarted,
  kEvacuationCompleted,
  kProactiveDrain,
  kRepatriationStarted,
  kRepatriationCompleted,
  kStatelessRespawn,
  kCrashRecovery,
  kVmLost,
  kVmReleased,
};

std::string_view ControllerEventKindName(ControllerEventKind kind);

// What an event's detail column says, beyond its kind, VM, host and market.
enum class ControllerEventDetail : uint8_t {
  kNone,               // ""
  kStateless,          // "stateless" (a kVmRequested replica)
  kResidentVms,        // "vms=N" (N = resident_vms)
  kNoBackup,           // "platform failure, no backup"
  kLiveMigrationRace,  // "live-migration race"
  kEvacuationOutcome,  // "downtime=D.Ds degraded=G.Gs" (downtime, degraded)
};

struct ControllerEvent {
  SimTime time;
  NestedVmId vm;          // invalid when the event is host-scoped
  InstanceId host;        // invalid when not applicable
  MarketKey market;       // the pool involved
  SimDuration downtime;   // kEvacuationOutcome only
  SimDuration degraded;   // kEvacuationOutcome only
  int32_t resident_vms = 0;  // kResidentVms only
  ControllerEventKind kind = ControllerEventKind::kVmRequested;
  ControllerEventDetail detail = ControllerEventDetail::kNone;
};
// A grid repetition records hundreds of thousands of these: keep them flat,
// small and off the heap.
static_assert(std::is_trivially_copyable_v<ControllerEvent>);
static_assert(sizeof(ControllerEvent) <= 56);

// The detail column's text, e.g. "vms=2" or "downtime=23.1s degraded=0.0s".
std::string ControllerEventDetailText(const ControllerEvent& event);
// The event as a report row: time in seconds, ids and market as text.
RunReportEvent RenderControllerEvent(const ControllerEvent& event);

class ControllerEventLog {
 public:
  void Record(SimTime time, ControllerEventKind kind, NestedVmId vm,
              InstanceId host, MarketKey market,
              ControllerEventDetail detail = ControllerEventDetail::kNone);
  // A kRevocationWarning for `host` with `resident_vms` aboard.
  void RecordRevocationWarning(SimTime time, InstanceId host, MarketKey market,
                               int resident_vms);
  // A kEvacuationCompleted with the move's measured downtime and degraded
  // time.
  void RecordEvacuationCompleted(SimTime time, NestedVmId vm, InstanceId host,
                                 MarketKey market, SimDuration downtime,
                                 SimDuration degraded);

  const std::vector<ControllerEvent>& events() const { return events_; }
  // Hands the timeline over (to the cell's run report) and leaves the log
  // empty.
  std::vector<ControllerEvent> TakeEvents() {
    return std::exchange(events_, {});
  }
  int64_t CountOf(ControllerEventKind kind) const;
  std::vector<const ControllerEvent*> ForVm(NestedVmId vm) const;

  // The timeline is observational (reports and CSVs, never control flow);
  // fleet-scale runs disable it so a million placements do not accumulate
  // an unbounded event vector. Disabling drops future Records only.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // "time_s,kind,vm,host,market,detail" rows with a header.
  std::string ToCsv() const;

 private:
  void Append(const ControllerEvent& event) {
    if (enabled_) {
      events_.push_back(event);
    }
  }

  bool enabled_ = true;
  std::vector<ControllerEvent> events_;
};

}  // namespace spotcheck

#endif  // SRC_CORE_EVENT_LOG_H_
