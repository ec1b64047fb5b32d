#include "src/core/event_log.h"

#include <cstdio>

#include "src/common/csv.h"

namespace spotcheck {

std::string_view ControllerEventKindName(ControllerEventKind kind) {
  switch (kind) {
    case ControllerEventKind::kVmRequested:
      return "vm-requested";
    case ControllerEventKind::kVmPlaced:
      return "vm-placed";
    case ControllerEventKind::kRevocationWarning:
      return "revocation-warning";
    case ControllerEventKind::kEvacuationStarted:
      return "evacuation-started";
    case ControllerEventKind::kEvacuationCompleted:
      return "evacuation-completed";
    case ControllerEventKind::kProactiveDrain:
      return "proactive-drain";
    case ControllerEventKind::kRepatriationStarted:
      return "repatriation-started";
    case ControllerEventKind::kRepatriationCompleted:
      return "repatriation-completed";
    case ControllerEventKind::kStatelessRespawn:
      return "stateless-respawn";
    case ControllerEventKind::kCrashRecovery:
      return "crash-recovery";
    case ControllerEventKind::kVmLost:
      return "vm-lost";
    case ControllerEventKind::kVmReleased:
      return "vm-released";
  }
  return "unknown";
}

std::string ControllerEventDetailText(const ControllerEvent& event) {
  switch (event.detail) {
    case ControllerEventDetail::kNone:
      return {};
    case ControllerEventDetail::kStateless:
      return "stateless";
    case ControllerEventDetail::kResidentVms:
      return "vms=" + std::to_string(event.resident_vms);
    case ControllerEventDetail::kNoBackup:
      return "platform failure, no backup";
    case ControllerEventDetail::kLiveMigrationRace:
      return "live-migration race";
    case ControllerEventDetail::kEvacuationOutcome: {
      char text[64];
      std::snprintf(text, sizeof(text), "downtime=%.1fs degraded=%.1fs",
                    event.downtime.seconds(), event.degraded.seconds());
      return text;
    }
  }
  return {};
}

RunReportEvent RenderControllerEvent(const ControllerEvent& event) {
  RunReportEvent row;
  row.time_s = event.time.seconds();
  row.kind = std::string(ControllerEventKindName(event.kind));
  if (event.vm.valid()) {
    row.vm = event.vm.ToString();
  }
  if (event.host.valid()) {
    row.host = event.host.ToString();
  }
  row.market = event.market.ToString();
  row.detail = ControllerEventDetailText(event);
  return row;
}

void ControllerEventLog::Record(SimTime time, ControllerEventKind kind,
                                NestedVmId vm, InstanceId host, MarketKey market,
                                ControllerEventDetail detail) {
  ControllerEvent event;
  event.time = time;
  event.vm = vm;
  event.host = host;
  event.market = market;
  event.kind = kind;
  event.detail = detail;
  Append(event);
}

void ControllerEventLog::RecordRevocationWarning(SimTime time, InstanceId host,
                                                 MarketKey market,
                                                 int resident_vms) {
  ControllerEvent event;
  event.time = time;
  event.host = host;
  event.market = market;
  event.resident_vms = resident_vms;
  event.kind = ControllerEventKind::kRevocationWarning;
  event.detail = ControllerEventDetail::kResidentVms;
  Append(event);
}

void ControllerEventLog::RecordEvacuationCompleted(SimTime time, NestedVmId vm,
                                                   InstanceId host,
                                                   MarketKey market,
                                                   SimDuration downtime,
                                                   SimDuration degraded) {
  ControllerEvent event;
  event.time = time;
  event.vm = vm;
  event.host = host;
  event.market = market;
  event.downtime = downtime;
  event.degraded = degraded;
  event.kind = ControllerEventKind::kEvacuationCompleted;
  event.detail = ControllerEventDetail::kEvacuationOutcome;
  Append(event);
}

int64_t ControllerEventLog::CountOf(ControllerEventKind kind) const {
  int64_t count = 0;
  for (const ControllerEvent& event : events_) {
    if (event.kind == kind) {
      ++count;
    }
  }
  return count;
}

std::vector<const ControllerEvent*> ControllerEventLog::ForVm(NestedVmId vm) const {
  std::vector<const ControllerEvent*> matched;
  for (const ControllerEvent& event : events_) {
    if (event.vm == vm) {
      matched.push_back(&event);
    }
  }
  return matched;
}

std::string ControllerEventLog::ToCsv() const {
  CsvWriter writer;
  writer.AddRow({"time_s", "kind", "vm", "host", "market", "detail"});
  for (const ControllerEvent& event : events_) {
    const RunReportEvent row = RenderControllerEvent(event);
    writer.AddRow({std::to_string(row.time_s), row.kind, row.vm, row.host,
                   row.market, row.detail});
  }
  return writer.ToString();
}

}  // namespace spotcheck
