#include "src/cloud/native_cloud.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

namespace spotcheck {
namespace {

const MarketKey kMedium{InstanceType::kM3Medium, AvailabilityZone{0}};

// A harness with a single hand-authored market trace so revocation timing is
// exact: price 0.01 until t=1000s, spikes to 1.00 until t=5000s, then 0.01.
class NativeCloudTest : public testing::Test {
 protected:
  NativeCloudTest() : markets_(&sim_) {
    PriceTrace trace;
    trace.Append(SimTime(), 0.01);
    trace.Append(SimTime::FromSeconds(1000), 1.00);
    trace.Append(SimTime::FromSeconds(5000), 0.01);
    markets_.AddWithTrace(kMedium, std::move(trace));
    NativeCloudConfig config;
    config.sample_latencies = false;  // medians: spot start 227s, od 61s
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

TEST_F(NativeCloudTest, SpotInstanceStartsAfterTable1Latency) {
  InstanceId id = cloud_->RequestSpotInstance(kMedium, 0.070);
  sim_.RunUntil(SimTime::FromSeconds(226));
  EXPECT_TRUE(launches_.empty());
  EXPECT_EQ(cloud_->GetInstance(id)->state, InstanceState::kPending);
  sim_.RunUntil(SimTime::FromSeconds(228));
  EXPECT_EQ(launches_[id], std::vector<bool>{true});
  EXPECT_EQ(cloud_->GetInstance(id)->state, InstanceState::kRunning);
}

TEST_F(NativeCloudTest, OnDemandStartsFaster) {
  const InstanceId id = cloud_->RequestOnDemandInstance(kMedium);
  sim_.RunUntil(SimTime::FromSeconds(62));
  EXPECT_EQ(launches_[id], std::vector<bool>{true});
}

TEST_F(NativeCloudTest, SpotLaunchFailsWhenBidOutOfMoney) {
  // Request at t=900; starts at t=1127, inside the spike; bid 0.07 < 1.00.
  sim_.RunUntil(SimTime::FromSeconds(900));
  const InstanceId id = cloud_->RequestSpotInstance(kMedium, 0.070);
  sim_.RunUntil(SimTime::FromSeconds(1200));
  EXPECT_EQ(launches_[id], std::vector<bool>{false});
}

TEST_F(NativeCloudTest, RevocationWarningThenForcedTermination) {
  InstanceId id = cloud_->RequestSpotInstance(kMedium, 0.070);
  std::vector<std::pair<InstanceId, double>> warnings;
  cloud_->set_revocation_handler([&](InstanceId warned, SimTime deadline) {
    warnings.emplace_back(warned, deadline.seconds());
  });
  sim_.RunUntil(SimTime::FromSeconds(999));
  EXPECT_EQ(cloud_->GetInstance(id)->state, InstanceState::kRunning);
  // Spike at t=1000 -> warning at 1000, forced termination at 1120.
  sim_.RunUntil(SimTime::FromSeconds(1001));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].first, id);
  EXPECT_DOUBLE_EQ(warnings[0].second, 1120.0);
  EXPECT_EQ(cloud_->GetInstance(id)->state, InstanceState::kWarned);
  sim_.RunUntil(SimTime::FromSeconds(1121));
  EXPECT_EQ(cloud_->GetInstance(id)->state, InstanceState::kTerminated);
  EXPECT_EQ(cloud_->spot_revocations(), 1);
}

TEST_F(NativeCloudTest, CustomerTerminationDuringWarningAvoidsDoubleCount) {
  InstanceId id = cloud_->RequestSpotInstance(kMedium, 0.070);
  cloud_->set_revocation_handler(
      [&](InstanceId warned, SimTime) { cloud_->TerminateInstance(warned); });
  sim_.RunUntil(SimTime::FromSeconds(2000));
  EXPECT_EQ(cloud_->GetInstance(id)->state, InstanceState::kTerminated);
  EXPECT_EQ(cloud_->spot_revocations(), 1);
}

TEST_F(NativeCloudTest, OnDemandSurvivesSpike) {
  InstanceId id = cloud_->RequestOnDemandInstance(kMedium);
  sim_.RunUntil(SimTime::FromSeconds(6000));
  EXPECT_EQ(cloud_->GetInstance(id)->state, InstanceState::kRunning);
}

TEST_F(NativeCloudTest, SpotBilledAtMarketPrice) {
  InstanceId id = cloud_->RequestSpotInstance(kMedium, 0.070);
  // Running from t=227; check accrual just before the t=1000 spike revokes it.
  sim_.RunUntil(SimTime::FromSeconds(999));
  EXPECT_NEAR(cloud_->AccruedCost(id), 0.01 * (999.0 - 227.0) / 3600.0, 1e-9);
  // After the forced termination at t=1120, total cost includes the warning
  // period billed at the spiked market price.
  sim_.RunUntil(SimTime::FromSeconds(2000));
  const double expected =
      (0.01 * (1000.0 - 227.0) + 1.00 * 120.0) / 3600.0;
  EXPECT_NEAR(cloud_->TotalCost(), expected, 1e-9);
}

TEST_F(NativeCloudTest, OnDemandBilledAtListPrice) {
  InstanceId id = cloud_->RequestOnDemandInstance(kMedium);
  sim_.RunUntil(SimTime::FromSeconds(61 + 7200));
  EXPECT_NEAR(cloud_->AccruedCost(id), 0.070 * 2.0, 1e-9);
}

TEST_F(NativeCloudTest, TerminateStopsBilling) {
  InstanceId id = cloud_->RequestOnDemandInstance(kMedium);
  sim_.RunUntil(SimTime::FromSeconds(61 + 3600));
  cloud_->TerminateInstance(id);
  const double cost = cloud_->TotalCost();
  sim_.RunUntil(SimTime::FromSeconds(20000));
  EXPECT_NEAR(cloud_->TotalCost(), cost, 1e-12);
}

TEST_F(NativeCloudTest, TerminatePendingInstanceFailsLaunch) {
  InstanceId id = cloud_->RequestSpotInstance(kMedium, 0.070);
  cloud_->TerminateInstance(id);
  sim_.RunUntil(SimTime::FromSeconds(500));
  EXPECT_EQ(launches_[id], std::vector<bool>{false});
}

TEST_F(NativeCloudTest, OnDemandCapacityFailure) {
  NativeCloudConfig config;
  config.sample_latencies = false;
  config.on_demand_unavailable_probability = 1.0;
  NativeCloud cloud(&sim_, &markets_, config);
  std::vector<bool> outcomes;
  cloud.set_launch_handler(
      [&](InstanceId, bool ok) { outcomes.push_back(ok); });
  cloud.RequestOnDemandInstance(kMedium);
  sim_.RunUntil(SimTime::FromSeconds(100));
  EXPECT_EQ(outcomes, std::vector<bool>{false});
}

TEST_F(NativeCloudTest, InstancesQueryFiltersByState) {
  cloud_->RequestSpotInstance(kMedium, 0.070);
  cloud_->RequestOnDemandInstance(kMedium);
  sim_.RunUntil(SimTime::FromSeconds(500));
  EXPECT_EQ(cloud_->Instances(InstanceState::kRunning).size(), 2u);
  sim_.RunUntil(SimTime::FromSeconds(1200));
  EXPECT_EQ(cloud_->Instances(InstanceState::kRunning).size(), 1u);
  EXPECT_EQ(cloud_->Instances(InstanceState::kTerminated).size(), 1u);
}

// The launch contract the host pool relies on: the launch handler hears
// every launch exactly once, with ok == true only when the instance runs,
// on every path a launch can take -- a launch made from inside the handler
// included. A second cloud reports to its own handler only.
TEST_F(NativeCloudTest, EveryLaunchPathFiresReadyExactlyOnce) {
  const MarketKey other_zone{InstanceType::kM3Medium, AvailabilityZone{1}};
  PriceTrace flat;
  flat.Append(SimTime(), 0.01);
  markets_.AddWithTrace(other_zone, std::move(flat));
  InstanceId relauncher;
  InstanceId relaunched;
  cloud_->set_launch_handler([&](InstanceId id, bool ok) {
    launches_[id].push_back(ok);
    if (id == relauncher) {
      relaunched = cloud_->RequestOnDemandInstance(kMedium);
    }
  });

  const InstanceId spot = cloud_->RequestSpotInstance(kMedium, 0.070);
  const InstanceId on_demand = cloud_->RequestOnDemandInstance(kMedium);
  const InstanceId terminated = cloud_->RequestSpotInstance(kMedium, 0.070);
  cloud_->TerminateInstance(terminated);  // while still pending
  relauncher = cloud_->RequestOnDemandInstance(kMedium);
  // Zone 1 goes down at t=10, before either launch into it starts.
  cloud_->ScheduleZoneOutage(AvailabilityZone{1}, SimTime::FromSeconds(10),
                             SimTime::FromSeconds(2000));
  const InstanceId zone_spot = cloud_->RequestSpotInstance(other_zone, 0.070);
  const InstanceId zone_on_demand = cloud_->RequestOnDemandInstance(other_zone);
  // Requested at t=900, the spot launch starts at t=1127 inside the spike.
  sim_.RunUntil(SimTime::FromSeconds(900));
  const InstanceId priced_out = cloud_->RequestSpotInstance(kMedium, 0.070);
  NativeCloudConfig full_config;
  full_config.sample_latencies = false;
  full_config.on_demand_unavailable_probability = 1.0;
  NativeCloud full(&sim_, &markets_, full_config);
  // Each cloud numbers its instances from 1, so a launch reported to the
  // wrong handler would land on one of the other cloud's ids.
  std::map<InstanceId, std::vector<bool>> full_launches;
  full.set_launch_handler(
      [&](InstanceId id, bool ok) { full_launches[id].push_back(ok); });
  const InstanceId full_id = full.RequestOnDemandInstance(kMedium);
  sim_.RunUntil(SimTime::FromSeconds(6000));

  const std::map<InstanceId, std::vector<bool>> expected = {
      {spot, {true}},           {on_demand, {true}},
      {terminated, {false}},    {relauncher, {true}},
      {relaunched, {true}},     {zone_spot, {false}},
      {zone_on_demand, {false}}, {priced_out, {false}},
  };
  EXPECT_EQ(launches_, expected);
  const std::map<InstanceId, std::vector<bool>> expected_full = {
      {full_id, {false}}};
  EXPECT_EQ(full_launches, expected_full);
  // spot, on_demand, relauncher and relaunched.
  EXPECT_EQ(cloud_->launches(), 4);
}

}  // namespace
}  // namespace spotcheck
