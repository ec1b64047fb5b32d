#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/cloud/native_cloud.h"
#include "src/core/controller.h"

namespace spotcheck {
namespace {

const AvailabilityZone kZone0{0};
const AvailabilityZone kZone1{1};
const MarketKey kMediumZ0{InstanceType::kM3Medium, kZone0};
const MarketKey kMediumZ1{InstanceType::kM3Medium, kZone1};

PriceTrace Flat(double price) {
  PriceTrace trace;
  trace.Append(SimTime(), price);
  return trace;
}

class ZoneOutageTest : public testing::Test {
 protected:
  ZoneOutageTest() : markets_(&sim_) {
    markets_.AddWithTrace(kMediumZ0, Flat(0.008));
    markets_.AddWithTrace(kMediumZ1, Flat(0.009));
    NativeCloudConfig config;
    config.sample_latencies = false;
    cloud_ = std::make_unique<NativeCloud>(&sim_, &markets_, config);
    cloud_->set_launch_handler(
        [this](InstanceId id, bool ok) { launches_[id].push_back(ok); });
  }

  Simulator sim_;
  MarketPlace markets_;
  std::unique_ptr<NativeCloud> cloud_;
  // Every outcome the launch handler heard, by instance.
  std::map<InstanceId, std::vector<bool>> launches_;
};

TEST_F(ZoneOutageTest, RunningInstancesDieWithoutWarning) {
  const InstanceId spot = cloud_->RequestSpotInstance(kMediumZ0, 0.07);
  const InstanceId od = cloud_->RequestOnDemandInstance(kMediumZ0);
  std::vector<InstanceId> failed;
  cloud_->set_instance_failure_handler(
      [&](InstanceId id) { failed.push_back(id); });
  bool warned = false;
  cloud_->set_revocation_handler([&](InstanceId, SimTime) { warned = true; });
  sim_.RunUntil(SimTime::FromSeconds(300));

  cloud_->ScheduleZoneOutage(kZone0, SimTime::FromSeconds(1000),
                             SimTime::FromSeconds(5000));
  sim_.RunUntil(SimTime::FromSeconds(1001));
  EXPECT_FALSE(warned);  // platform failures give NO termination notice
  EXPECT_EQ(failed.size(), 2u);
  EXPECT_EQ(cloud_->GetInstance(spot)->state, InstanceState::kTerminated);
  EXPECT_EQ(cloud_->GetInstance(od)->state, InstanceState::kTerminated);
  EXPECT_EQ(cloud_->instance_failures(), 2);
}

TEST_F(ZoneOutageTest, LaunchesFailWhileZoneIsDown) {
  cloud_->ScheduleZoneOutage(kZone0, SimTime::FromSeconds(10),
                             SimTime::FromSeconds(10000));
  sim_.RunUntil(SimTime::FromSeconds(20));
  EXPECT_FALSE(cloud_->ZoneAvailable(kZone0));
  EXPECT_TRUE(cloud_->ZoneAvailable(kZone1));
  const InstanceId down = cloud_->RequestOnDemandInstance(kMediumZ0);
  sim_.RunUntil(SimTime::FromSeconds(200));
  EXPECT_EQ(launches_[down], std::vector<bool>{false});
  // The untouched zone still works.
  const InstanceId up = cloud_->RequestOnDemandInstance(kMediumZ1);
  sim_.RunUntil(SimTime::FromSeconds(400));
  EXPECT_EQ(launches_[up], std::vector<bool>{true});
}

TEST_F(ZoneOutageTest, ZoneRecoversAfterWindow) {
  cloud_->ScheduleZoneOutage(kZone0, SimTime::FromSeconds(10),
                             SimTime::FromSeconds(1000));
  sim_.RunUntil(SimTime::FromSeconds(1001));
  EXPECT_TRUE(cloud_->ZoneAvailable(kZone0));
  const InstanceId id = cloud_->RequestOnDemandInstance(kMediumZ0);
  sim_.RunUntil(SimTime::FromSeconds(1200));
  EXPECT_EQ(launches_[id], std::vector<bool>{true});
}

TEST_F(ZoneOutageTest, BillingStopsAtTheFailure) {
  cloud_->RequestOnDemandInstance(kMediumZ0);
  sim_.RunUntil(SimTime::FromSeconds(61 + 3600));
  cloud_->ScheduleZoneOutage(kZone0, sim_.Now(), sim_.Now() + SimDuration::Hours(2));
  sim_.Step();
  const double cost = cloud_->TotalCost();
  EXPECT_NEAR(cost, 0.070, 1e-6);
  sim_.RunUntil(SimTime() + SimDuration::Hours(10));
  EXPECT_NEAR(cloud_->TotalCost(), cost, 1e-9);
}

// --- Controller recovery -------------------------------------------------------

class ZoneRecoveryTest : public testing::Test {
 protected:
  void Build(ControllerConfig config) {
    markets_ = std::make_unique<MarketPlace>(&sim_);
    markets_->AddWithTrace(kMediumZ0, Flat(0.008));
    markets_->AddWithTrace(kMediumZ1, Flat(0.009));
    NativeCloudConfig cloud_config;
    cloud_config.sample_latencies = false;
    cloud_ = std::make_unique<NativeCloud>(&sim_, markets_.get(), cloud_config);
    controller_ = std::make_unique<SpotCheckController>(&sim_, cloud_.get(),
                                                        markets_.get(), config);
    customer_ = controller_->RegisterCustomer("survivor");
  }

  Simulator sim_;
  std::unique_ptr<MarketPlace> markets_;
  std::unique_ptr<NativeCloud> cloud_;
  std::unique_ptr<SpotCheckController> controller_;
  CustomerId customer_;
};

TEST_F(ZoneRecoveryTest, CheckpointedVmSurvivesZoneFailure) {
  ControllerConfig config;
  config.num_zones = 2;  // zone 1 remains for the recovery destination
  Build(config);
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(2000));
  cloud_->ScheduleZoneOutage(kZone0, SimTime::FromSeconds(3000),
                             SimTime::FromSeconds(100000));
  sim_.RunUntil(SimTime::FromSeconds(6000));

  const NestedVm* record = controller_->GetVm(vm);
  EXPECT_TRUE(record->state() == NestedVmState::kRunning ||
              record->state() == NestedVmState::kDegraded)
      << NestedVmStateName(record->state());
  EXPECT_EQ(controller_->engine().crash_recoveries(), 1);
  EXPECT_EQ(controller_->vms_lost(), 0);
  // The recovery destination is outside the failed zone.
  const HostVm* host = controller_->GetHost(record->host());
  ASSERT_NE(host, nullptr);
  EXPECT_NE(host->market().zone, kZone0);
  // Downtime covers the failure-to-restore window (no warning to hide in).
  const SimDuration down = controller_->activity_log().Total(
      vm, ActivityKind::kDowntime, SimTime(), sim_.Now());
  EXPECT_GT(down.seconds(), 60.0);   // on-demand launch + EC2 ops + restore
  EXPECT_LT(down.seconds(), 300.0);
}

TEST_F(ZoneRecoveryTest, UnbackedVmIsLostToZoneFailure) {
  ControllerConfig config;
  config.mechanism = MigrationMechanism::kXenLiveMigration;  // no backups
  config.num_zones = 2;
  Build(config);
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(2000));
  cloud_->ScheduleZoneOutage(kZone0, SimTime::FromSeconds(3000),
                             SimTime::FromSeconds(100000));
  sim_.RunUntil(SimTime::FromSeconds(6000));
  EXPECT_EQ(controller_->GetVm(vm)->state(), NestedVmState::kFailed);
  EXPECT_EQ(controller_->vms_lost(), 1);
}

TEST_F(ZoneRecoveryTest, StatelessVmRespawnsElsewhere) {
  ControllerConfig config;
  config.num_zones = 2;
  Build(config);
  const NestedVmId vm = controller_->RequestServer(customer_, /*stateless=*/true);
  sim_.RunUntil(SimTime::FromSeconds(2000));
  cloud_->ScheduleZoneOutage(kZone0, SimTime::FromSeconds(3000),
                             SimTime::FromSeconds(100000));
  sim_.RunUntil(SimTime::FromSeconds(6000));
  const NestedVm* record = controller_->GetVm(vm);
  EXPECT_EQ(record->state(), NestedVmState::kRunning);
  EXPECT_EQ(controller_->stateless_respawns(), 1);
  EXPECT_EQ(controller_->vms_lost(), 0);
}

TEST_F(ZoneRecoveryTest, FleetRecoversAndInvariantsHold) {
  ControllerConfig config;
  config.num_zones = 2;
  Build(config);
  for (int i = 0; i < 8; ++i) {
    controller_->RequestServer(customer_);
  }
  sim_.RunUntil(SimTime::FromSeconds(2000));
  cloud_->ScheduleZoneOutage(kZone0, SimTime::FromSeconds(3000),
                             SimTime::FromSeconds(50000));
  sim_.RunUntil(SimTime::FromSeconds(60000));
  EXPECT_EQ(controller_->RunningVmCount(), 8);
  EXPECT_EQ(controller_->vms_lost(), 0);
  std::string error;
  EXPECT_TRUE(controller_->ValidateInvariants(&error)) << error;
}

}  // namespace
}  // namespace spotcheck
