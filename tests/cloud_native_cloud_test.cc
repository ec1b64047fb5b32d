#include "src/cloud/native_cloud.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
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
  }

  Simulator sim_;
  MarketPlace markets_;
  std::unique_ptr<NativeCloud> cloud_;
};

TEST_F(NativeCloudTest, SpotInstanceStartsAfterTable1Latency) {
  bool ready = false;
  InstanceId id = cloud_->RequestSpotInstance(kMedium, 0.070,
                                              [&](InstanceId, bool ok) { ready = ok; });
  sim_.RunUntil(SimTime::FromSeconds(226));
  EXPECT_FALSE(ready);
  EXPECT_EQ(cloud_->GetInstance(id)->state, InstanceState::kPending);
  sim_.RunUntil(SimTime::FromSeconds(228));
  EXPECT_TRUE(ready);
  EXPECT_EQ(cloud_->GetInstance(id)->state, InstanceState::kRunning);
}

TEST_F(NativeCloudTest, OnDemandStartsFaster) {
  bool ready = false;
  cloud_->RequestOnDemandInstance(kMedium, [&](InstanceId, bool ok) { ready = ok; });
  sim_.RunUntil(SimTime::FromSeconds(62));
  EXPECT_TRUE(ready);
}

TEST_F(NativeCloudTest, SpotLaunchFailsWhenBidOutOfMoney) {
  // Request at t=900; starts at t=1127, inside the spike; bid 0.07 < 1.00.
  bool ok = true;
  sim_.RunUntil(SimTime::FromSeconds(900));
  cloud_->RequestSpotInstance(kMedium, 0.070,
                              [&](InstanceId, bool success) { ok = success; });
  sim_.RunUntil(SimTime::FromSeconds(1200));
  EXPECT_FALSE(ok);
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
  bool called = false;
  bool ok = true;
  InstanceId id = cloud_->RequestSpotInstance(kMedium, 0.070,
                                              [&](InstanceId, bool success) {
                                                called = true;
                                                ok = success;
                                              });
  cloud_->TerminateInstance(id);
  sim_.RunUntil(SimTime::FromSeconds(500));
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST_F(NativeCloudTest, OnDemandCapacityFailure) {
  NativeCloudConfig config;
  config.sample_latencies = false;
  config.on_demand_unavailable_probability = 1.0;
  NativeCloud cloud(&sim_, &markets_, config);
  bool ok = true;
  cloud.RequestOnDemandInstance(kMedium, [&](InstanceId, bool success) { ok = success; });
  sim_.RunUntil(SimTime::FromSeconds(100));
  EXPECT_FALSE(ok);
}

TEST_F(NativeCloudTest, VolumeAttachDetachLifecycle) {
  InstanceId instance = cloud_->RequestOnDemandInstance(kMedium);
  sim_.RunUntil(SimTime::FromSeconds(62));
  const VolumeId volume = cloud_->CreateVolume(100.0);
  bool attached = false;
  cloud_->AttachVolume(volume, instance, [&](bool ok) { attached = ok; });
  sim_.RunUntil(SimTime::FromSeconds(62 + 6));  // attach median 5s
  EXPECT_TRUE(attached);
  EXPECT_EQ(cloud_->VolumeAttachment(volume), instance);
  bool detached = false;
  cloud_->DetachVolume(volume, [&](bool ok) { detached = ok; });
  sim_.RunUntil(SimTime::FromSeconds(62 + 6 + 11));  // detach median 10.3s
  EXPECT_TRUE(detached);
  EXPECT_FALSE(cloud_->VolumeAttachment(volume).valid());
}

TEST_F(NativeCloudTest, DoubleAttachFails) {
  InstanceId instance = cloud_->RequestOnDemandInstance(kMedium);
  sim_.RunUntil(SimTime::FromSeconds(62));
  const VolumeId volume = cloud_->CreateVolume(10.0);
  cloud_->AttachVolume(volume, instance);
  sim_.RunUntil(SimTime::FromSeconds(70));
  bool second_ok = true;
  cloud_->AttachVolume(volume, instance, [&](bool ok) { second_ok = ok; });
  sim_.RunUntil(SimTime::FromSeconds(80));
  EXPECT_FALSE(second_ok);
}

TEST_F(NativeCloudTest, AttachToPendingInstanceFails) {
  InstanceId instance = cloud_->RequestSpotInstance(kMedium, 0.070);
  const VolumeId volume = cloud_->CreateVolume(10.0);
  bool ok = true;
  cloud_->AttachVolume(volume, instance, [&](bool success) { ok = success; });
  sim_.RunUntil(SimTime::FromSeconds(10));
  EXPECT_FALSE(ok);
}

TEST_F(NativeCloudTest, AddressReassignmentAcrossInstances) {
  InstanceId a = cloud_->RequestOnDemandInstance(kMedium);
  InstanceId b = cloud_->RequestOnDemandInstance(kMedium);
  sim_.RunUntil(SimTime::FromSeconds(62));
  const AddressId address = cloud_->AllocateAddress();
  bool ok = false;
  cloud_->AssignAddress(address, a, [&](bool success) { ok = success; });
  sim_.RunUntil(SimTime::FromSeconds(70));
  EXPECT_TRUE(ok);
  EXPECT_EQ(cloud_->AddressAssignment(address), a);
  // Move the address: unassign from a, assign to b (Fig. 4's flow).
  cloud_->UnassignAddress(address);
  sim_.RunUntil(SimTime::FromSeconds(75));
  cloud_->AssignAddress(address, b);
  sim_.RunUntil(SimTime::FromSeconds(85));
  EXPECT_EQ(cloud_->AddressAssignment(address), b);
}

TEST_F(NativeCloudTest, ForcedTerminationReleasesAttachments) {
  InstanceId id = cloud_->RequestSpotInstance(kMedium, 0.070);
  sim_.RunUntil(SimTime::FromSeconds(300));
  const VolumeId volume = cloud_->CreateVolume(10.0);
  const AddressId address = cloud_->AllocateAddress();
  cloud_->AttachVolume(volume, id);
  cloud_->AssignAddress(address, id);
  sim_.RunUntil(SimTime::FromSeconds(320));
  EXPECT_EQ(cloud_->VolumeAttachment(volume), id);
  // Spike at 1000 terminates at 1120; attachments must be released.
  sim_.RunUntil(SimTime::FromSeconds(1200));
  EXPECT_FALSE(cloud_->VolumeAttachment(volume).valid());
  EXPECT_FALSE(cloud_->AddressAssignment(address).valid());
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

// The launch contract the host pool relies on: every launch resolves its
// ready callback exactly once, with ok == true only when the instance
// runs, on every path a launch can take. A callback that launches again
// from inside itself gets its own callback too.
TEST_F(NativeCloudTest, EveryLaunchPathFiresReadyExactlyOnce) {
  const MarketKey other_zone{InstanceType::kM3Medium, AvailabilityZone{1}};
  PriceTrace flat;
  flat.Append(SimTime(), 0.01);
  markets_.AddWithTrace(other_zone, std::move(flat));
  std::map<InstanceId, std::vector<bool>> calls;
  const auto record = [&calls](InstanceId id, bool ok) {
    calls[id].push_back(ok);
  };

  const InstanceId spot = cloud_->RequestSpotInstance(kMedium, 0.070, record);
  const InstanceId on_demand = cloud_->RequestOnDemandInstance(kMedium, record);
  const InstanceId terminated =
      cloud_->RequestSpotInstance(kMedium, 0.070, record);
  cloud_->TerminateInstance(terminated);  // while still pending
  InstanceId relaunched;
  const InstanceId relauncher = cloud_->RequestOnDemandInstance(
      kMedium, [&](InstanceId id, bool ok) {
        record(id, ok);
        relaunched = cloud_->RequestOnDemandInstance(kMedium, record);
      });
  // Zone 1 goes down at t=10, before either launch into it starts.
  cloud_->ScheduleZoneOutage(AvailabilityZone{1}, SimTime::FromSeconds(10),
                             SimTime::FromSeconds(2000));
  const InstanceId zone_spot =
      cloud_->RequestSpotInstance(other_zone, 0.070, record);
  const InstanceId zone_on_demand =
      cloud_->RequestOnDemandInstance(other_zone, record);
  const InstanceId silent = cloud_->RequestSpotInstance(kMedium, 0.070);
  // Requested at t=900, the spot launch starts at t=1127 inside the spike.
  sim_.RunUntil(SimTime::FromSeconds(900));
  const InstanceId priced_out =
      cloud_->RequestSpotInstance(kMedium, 0.070, record);
  NativeCloudConfig full_config;
  full_config.sample_latencies = false;
  full_config.on_demand_unavailable_probability = 1.0;
  NativeCloud full(&sim_, &markets_, full_config);
  std::vector<bool> full_calls;
  full.RequestOnDemandInstance(
      kMedium, [&](InstanceId, bool ok) { full_calls.push_back(ok); });
  sim_.RunUntil(SimTime::FromSeconds(6000));

  const std::map<InstanceId, std::vector<bool>> expected = {
      {spot, {true}},           {on_demand, {true}},
      {terminated, {false}},    {relauncher, {true}},
      {relaunched, {true}},     {zone_spot, {false}},
      {zone_on_demand, {false}}, {priced_out, {false}},
  };
  EXPECT_EQ(calls, expected);
  EXPECT_EQ(full_calls, std::vector<bool>{false});
  // A launch without a callback runs all the same.
  EXPECT_NE(cloud_->GetInstance(silent)->state, InstanceState::kPending);
  // spot, on_demand, relauncher, relaunched and silent.
  EXPECT_EQ(cloud_->launches(), 5);
}

// AttachVolume and AssignAddress report through `done`: success after the
// operation's latency, and false for each refusal -- an unknown id, an
// operation already in flight, an attachment that already exists, a target
// that is not running, and a target that dies while the operation runs.
TEST_F(NativeCloudTest, AttachAndAssignReportSuccessAndEachRefusal) {
  const InstanceId host = cloud_->RequestOnDemandInstance(kMedium);
  const InstanceId doomed = cloud_->RequestOnDemandInstance(kMedium);
  const InstanceId pending = cloud_->RequestSpotInstance(kMedium, 0.070);
  sim_.RunUntil(SimTime::FromSeconds(62));
  ASSERT_EQ(cloud_->GetInstance(pending)->state, InstanceState::kPending);

  std::map<std::string, std::vector<bool>> attach;
  std::map<std::string, std::vector<bool>> assign;
  const auto into = [](std::vector<bool>& out) {
    return [&out](bool ok) { out.push_back(ok); };
  };
  const VolumeId volume = cloud_->CreateVolume(8.0);
  const VolumeId spare_volume = cloud_->CreateVolume(8.0);
  const VolumeId dying_volume = cloud_->CreateVolume(8.0);
  const VolumeId quiet_volume = cloud_->CreateVolume(8.0);
  cloud_->AttachVolume(volume, host, into(attach["ok"]));
  cloud_->AttachVolume(volume, host, into(attach["busy"]));
  cloud_->AttachVolume(VolumeId(999), host, into(attach["unknown volume"]));
  cloud_->AttachVolume(spare_volume, InstanceId(999),
                       into(attach["unknown instance"]));
  cloud_->AttachVolume(spare_volume, pending, into(attach["pending"]));
  cloud_->AttachVolume(dying_volume, doomed, into(attach["died"]));
  cloud_->AttachVolume(quiet_volume, host);

  const AddressId address = cloud_->AllocateAddress();
  const AddressId spare_address = cloud_->AllocateAddress();
  const AddressId dying_address = cloud_->AllocateAddress();
  const AddressId quiet_address = cloud_->AllocateAddress();
  cloud_->AssignAddress(address, host, into(assign["ok"]));
  cloud_->AssignAddress(address, host, into(assign["busy"]));
  cloud_->AssignAddress(AddressId(999), host, into(assign["unknown address"]));
  cloud_->AssignAddress(spare_address, InstanceId(999),
                        into(assign["unknown instance"]));
  cloud_->AssignAddress(spare_address, pending, into(assign["pending"]));
  cloud_->AssignAddress(dying_address, doomed, into(assign["died"]));
  cloud_->AssignAddress(quiet_address, host);
  cloud_->TerminateInstance(doomed);
  sim_.RunUntil(SimTime::FromSeconds(100));
  cloud_->AttachVolume(volume, host, into(attach["attached"]));
  cloud_->AssignAddress(address, host, into(assign["attached"]));
  sim_.RunUntil(SimTime::FromSeconds(200));

  const std::map<std::string, std::vector<bool>> expected_attach = {
      {"ok", {true}},       {"busy", {false}},    {"unknown volume", {false}},
      {"unknown instance", {false}}, {"pending", {false}},
      {"died", {false}},    {"attached", {false}},
  };
  const std::map<std::string, std::vector<bool>> expected_assign = {
      {"ok", {true}},       {"busy", {false}},    {"unknown address", {false}},
      {"unknown instance", {false}}, {"pending", {false}},
      {"died", {false}},    {"attached", {false}},
  };
  EXPECT_EQ(attach, expected_attach);
  EXPECT_EQ(assign, expected_assign);
  EXPECT_EQ(cloud_->VolumeAttachment(volume), host);
  EXPECT_EQ(cloud_->AddressAssignment(address), host);
  EXPECT_EQ(cloud_->VolumeAttachment(quiet_volume), host);
  EXPECT_EQ(cloud_->AddressAssignment(quiet_address), host);
  EXPECT_FALSE(cloud_->VolumeAttachment(dying_volume).valid());
  EXPECT_FALSE(cloud_->AddressAssignment(dying_address).valid());
}

}  // namespace
}  // namespace spotcheck
