#include "src/core/event_log.h"

#include <gtest/gtest.h>

#include "src/core/controller.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

const MarketKey kMedium{InstanceType::kM3Medium, AvailabilityZone{0}};

TEST(ControllerEventLogTest, RecordAndQuery) {
  ControllerEventLog log;
  log.Record(SimTime::FromSeconds(1), ControllerEventKind::kVmRequested,
             NestedVmId(1), InstanceId(), kMedium);
  log.Record(SimTime::FromSeconds(2), ControllerEventKind::kVmPlaced,
             NestedVmId(1), InstanceId(7), kMedium,
             ControllerEventDetail::kStateless);
  log.Record(SimTime::FromSeconds(3), ControllerEventKind::kVmPlaced,
             NestedVmId(2), InstanceId(7), kMedium);
  EXPECT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.CountOf(ControllerEventKind::kVmPlaced), 2);
  EXPECT_EQ(log.CountOf(ControllerEventKind::kVmLost), 0);
  EXPECT_EQ(log.ForVm(NestedVmId(1)).size(), 2u);
}

TEST(ControllerEventLogTest, CsvFormat) {
  ControllerEventLog log;
  log.RecordRevocationWarning(SimTime::FromSeconds(10), InstanceId(3), kMedium,
                              2);
  const std::string csv = log.ToCsv();
  EXPECT_NE(csv.find("time_s,kind,vm,host,market,detail"), std::string::npos);
  EXPECT_NE(csv.find("revocation-warning"), std::string::npos);
  EXPECT_NE(csv.find("i-3"), std::string::npos);
  EXPECT_NE(csv.find("m3.medium@zone-0"), std::string::npos);
  EXPECT_NE(csv.find("vms=2"), std::string::npos);
}

TEST(ControllerEventLogTest, KindNamesAreDistinct) {
  std::set<std::string_view> names;
  for (int k = 0; k <= static_cast<int>(ControllerEventKind::kVmReleased); ++k) {
    names.insert(ControllerEventKindName(static_cast<ControllerEventKind>(k)));
  }
  EXPECT_EQ(names.size(),
            static_cast<size_t>(ControllerEventKind::kVmReleased) + 1);
}

// --- Controller integration ---------------------------------------------------

TEST(ControllerEventLogTest, LifecycleTimelineIsComplete) {
  Simulator sim;
  MarketPlace markets(&sim);
  PriceTrace trace;
  trace.Append(SimTime(), 0.008);
  trace.Append(SimTime::FromSeconds(10000), 0.50);
  trace.Append(SimTime::FromSeconds(20000), 0.008);
  markets.AddWithTrace(kMedium, std::move(trace));
  NativeCloudConfig cloud_config;
  cloud_config.sample_latencies = false;
  NativeCloud cloud(&sim, &markets, cloud_config);
  SpotCheckController controller(&sim, &cloud, &markets, ControllerConfig{});
  const CustomerId customer = controller.RegisterCustomer("audited");
  const NestedVmId vm = controller.RequestServer(customer);
  sim.RunUntil(SimTime::FromSeconds(25000));
  controller.ReleaseServer(vm);

  const ControllerEventLog& log = controller.event_log();
  EXPECT_EQ(log.CountOf(ControllerEventKind::kVmRequested), 1);
  EXPECT_EQ(log.CountOf(ControllerEventKind::kVmPlaced), 1);
  EXPECT_EQ(log.CountOf(ControllerEventKind::kRevocationWarning), 1);
  EXPECT_EQ(log.CountOf(ControllerEventKind::kEvacuationStarted), 1);
  EXPECT_EQ(log.CountOf(ControllerEventKind::kEvacuationCompleted), 1);
  EXPECT_EQ(log.CountOf(ControllerEventKind::kRepatriationStarted), 1);
  EXPECT_EQ(log.CountOf(ControllerEventKind::kRepatriationCompleted), 1);
  EXPECT_EQ(log.CountOf(ControllerEventKind::kVmReleased), 1);
  EXPECT_EQ(log.CountOf(ControllerEventKind::kVmLost), 0);

  // The VM's personal timeline is ordered and complete.
  const auto timeline = controller.event_log().ForVm(vm);
  ASSERT_GE(timeline.size(), 7u);
  for (size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_LE(timeline[i - 1]->time, timeline[i]->time);
  }
  EXPECT_EQ(timeline.front()->kind, ControllerEventKind::kVmRequested);
  EXPECT_EQ(timeline.back()->kind, ControllerEventKind::kVmReleased);
  // The evacuation record carries its measured downtime.
  bool found_downtime_detail = false;
  for (const ControllerEvent* event : timeline) {
    if (event->kind == ControllerEventKind::kEvacuationCompleted) {
      found_downtime_detail = ControllerEventDetailText(*event).find(
                                  "downtime=") != std::string::npos;
    }
  }
  EXPECT_TRUE(found_downtime_detail);
}

}  // namespace
}  // namespace spotcheck
