#include "src/core/controller.h"

#include <gtest/gtest.h>

#include "src/core/evaluation.h"
#include "src/policy/policy_spec.h"

namespace spotcheck {
namespace {

const MarketKey kMedium{InstanceType::kM3Medium, AvailabilityZone{0}};

// One spike: cheap until t=10000s, above on-demand until t=20000s, cheap after.
PriceTrace OneSpikeTrace() {
  PriceTrace trace;
  trace.Append(SimTime(), 0.008);
  trace.Append(SimTime::FromSeconds(10000), 0.50);
  trace.Append(SimTime::FromSeconds(20000), 0.008);
  return trace;
}

class ControllerTest : public testing::Test {
 protected:
  void Build(ControllerConfig config = {}, PriceTrace trace = OneSpikeTrace()) {
    markets_ = std::make_unique<MarketPlace>(&sim_);
    markets_->AddWithTrace(kMedium, std::move(trace));
    NativeCloudConfig cloud_config;
    cloud_config.sample_latencies = false;
    cloud_ = std::make_unique<NativeCloud>(&sim_, markets_.get(), cloud_config);
    controller_ = std::make_unique<SpotCheckController>(&sim_, cloud_.get(),
                                                        markets_.get(), config);
    customer_ = controller_->RegisterCustomer("test");
  }

  Simulator sim_;
  std::unique_ptr<MarketPlace> markets_;
  std::unique_ptr<NativeCloud> cloud_;
  std::unique_ptr<SpotCheckController> controller_;
  CustomerId customer_;
};

TEST_F(ControllerTest, VmProvisionsOnSpotHost) {
  Build();
  const NestedVmId vm = controller_->RequestServer(customer_);
  EXPECT_EQ(controller_->GetVm(vm)->state(), NestedVmState::kProvisioning);
  sim_.RunUntil(SimTime::FromSeconds(300));  // spot start median 227s
  const NestedVm* record = controller_->GetVm(vm);
  EXPECT_EQ(record->state(), NestedVmState::kRunning);
  const HostVm* host = controller_->GetHost(record->host());
  ASSERT_NE(host, nullptr);
  EXPECT_TRUE(host->is_spot());
  EXPECT_EQ(host->market().type, InstanceType::kM3Medium);
}

TEST_F(ControllerTest, SpotHostedVmGetsBackupAndPlumbing) {
  Build();
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(300));
  const NestedVm* record = controller_->GetVm(vm);
  EXPECT_TRUE(record->backup().valid());
  // The VM's stable private address lives in the VPC and routes to its host.
  const auto ip = controller_->vpc().IpOf(vm);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(controller_->vpc().HostFor(*ip), record->host());
  EXPECT_EQ(controller_->backup_pool().num_servers(), 1);
  EXPECT_TRUE(controller_->backup_pool().ServerFor(vm)->HasStream(vm));
}

TEST_F(ControllerTest, XenLiveMechanismSkipsBackup) {
  ControllerConfig config;
  config.mechanism = MigrationMechanism::kXenLiveMigration;
  Build(config);
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(300));
  EXPECT_FALSE(controller_->GetVm(vm)->backup().valid());
  EXPECT_EQ(controller_->backup_pool().num_servers(), 0);
}

TEST_F(ControllerTest, RevocationMigratesToOnDemandAndBack) {
  Build();
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(9000));
  EXPECT_EQ(controller_->GetVm(vm)->state(), NestedVmState::kRunning);

  // Spike at t=10000 revokes the host; by t=10400 the VM must have resumed
  // on an on-demand host (warning 120s + EC2 ops 22.65s + restore).
  sim_.RunUntil(SimTime::FromSeconds(10400));
  {
    const NestedVm* record = controller_->GetVm(vm);
    EXPECT_TRUE(record->state() == NestedVmState::kRunning ||
                record->state() == NestedVmState::kDegraded)
        << NestedVmStateName(record->state());
    const HostVm* host = controller_->GetHost(record->host());
    ASSERT_NE(host, nullptr);
    EXPECT_FALSE(host->is_spot());
    EXPECT_FALSE(record->backup().valid());  // no backup needed on on-demand
  }
  EXPECT_EQ(controller_->revocation_events(), 1);
  EXPECT_EQ(controller_->engine().evacuations(), 1);

  // Price recovers at t=20000; within spot-start latency + live migration the
  // VM is back on a spot host.
  sim_.RunUntil(SimTime::FromSeconds(21000));
  {
    const NestedVm* record = controller_->GetVm(vm);
    const HostVm* host = controller_->GetHost(record->host());
    ASSERT_NE(host, nullptr);
    EXPECT_TRUE(host->is_spot());
    EXPECT_TRUE(record->backup().valid());
  }
  EXPECT_EQ(controller_->repatriations(), 1);
  // Exactly two migrations: one evacuation, one repatriation.
  EXPECT_EQ(controller_->GetVm(vm)->migrations(), 2);
}

TEST_F(ControllerTest, DowntimeChargedOnlyDuringEvacuation) {
  Build();
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(25000));
  const SimDuration down = controller_->activity_log().Total(
      vm, ActivityKind::kDowntime, SimTime(), sim_.Now());
  // SpotCheck lazy restore: ms-scale commit + 22.65s EC2 ops + skeleton read,
  // plus the repatriation's sub-second stop-and-copy.
  EXPECT_GT(down.seconds(), 20.0);
  EXPECT_LT(down.seconds(), 40.0);
}

TEST_F(ControllerTest, ReleaseServerStopsEverything) {
  Build();
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(300));
  controller_->ReleaseServer(vm);
  EXPECT_EQ(controller_->GetVm(vm)->state(), NestedVmState::kTerminated);
  EXPECT_EQ(controller_->backup_pool().num_assigned(), 0);
  sim_.RunUntil(SimTime::FromSeconds(1000));
  // The emptied host is terminated, so nothing keeps billing.
  const double cost = cloud_->TotalCost();
  sim_.RunUntil(SimTime::FromSeconds(5000));
  EXPECT_NEAR(cloud_->TotalCost(), cost, 1e-9);
}

TEST_F(ControllerTest, ReleasedVmDoesNotMigrate) {
  Build();
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(300));
  controller_->ReleaseServer(vm);
  sim_.RunUntil(SimTime::FromSeconds(25000));
  EXPECT_EQ(controller_->GetVm(vm)->migrations(), 0);
  EXPECT_EQ(controller_->engine().evacuations(), 0);
}

TEST_F(ControllerTest, MultipleVmsShareBackupServer) {
  Build();
  for (int i = 0; i < 10; ++i) {
    controller_->RequestServer(customer_);
  }
  sim_.RunUntil(SimTime::FromSeconds(500));
  EXPECT_EQ(controller_->RunningVmCount(), 10);
  EXPECT_EQ(controller_->backup_pool().num_servers(), 1);
  EXPECT_EQ(controller_->backup_pool().servers()[0]->num_streams(), 10);
}

TEST_F(ControllerTest, StormRecordedPerRevocationBatch) {
  Build();
  for (int i = 0; i < 8; ++i) {
    controller_->RequestServer(customer_);
  }
  sim_.RunUntil(SimTime::FromSeconds(15000));
  // All eight hosts were revoked by the same spike.
  EXPECT_EQ(controller_->storms().total_revoked_vms(), 8);
  const auto probs = controller_->storms().Probabilities(
      8, SimDuration::Minutes(6), SimDuration::Seconds(15000));
  EXPECT_GT(probs.all, 0.0);
  EXPECT_EQ(probs.quarter, 0.0);
}

TEST_F(ControllerTest, HotSparesAbsorbRevocations) {
  ControllerConfig config;
  config.hot_spares = 2;
  Build(config);
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(9000));
  const int hosts_before = static_cast<int>(controller_->Hosts().size());
  EXPECT_GE(hosts_before, 3);  // VM host + 2 spares
  sim_.RunUntil(SimTime::FromSeconds(10400));
  const NestedVm* record = controller_->GetVm(vm);
  const HostVm* host = controller_->GetHost(record->host());
  ASSERT_NE(host, nullptr);
  EXPECT_FALSE(host->is_spot());
  (void)vm;
}

TEST_F(ControllerTest, CostReportTracksSpotSavings) {
  // Stable market: no spikes; the VM should cost ~spot + backup share.
  PriceTrace stable;
  stable.Append(SimTime(), 0.008);
  Build(ControllerConfig{}, std::move(stable));
  for (int i = 0; i < 40; ++i) {
    controller_->RequestServer(customer_);
  }
  sim_.RunUntil(SimTime() + SimDuration::Days(10));
  const auto report = controller_->ComputeCostReport();
  EXPECT_GT(report.vm_hours, 40 * 24 * 9.0);
  // spot 0.008 + backup 0.28/40 = 0.015, well under the 0.07 on-demand price.
  EXPECT_LT(report.avg_cost_per_vm_hour, 0.02);
  EXPECT_GT(report.avg_cost_per_vm_hour, 0.01);
}

TEST_F(ControllerTest, ProactiveMigrationAvoidsRevocation) {
  // Price rises above on-demand (0.07) but stays below the 2x bid (0.14):
  // with proactive migration the VM leaves before any revocation.
  PriceTrace trace;
  trace.Append(SimTime(), 0.008);
  trace.Append(SimTime::FromSeconds(10000), 0.10);  // above od, below bid
  trace.Append(SimTime::FromSeconds(20000), 0.008);
  ControllerConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=multiple:2");
  config.enable_proactive = true;
  Build(config, std::move(trace));
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(12000));
  EXPECT_EQ(controller_->revocation_events(), 0);
  EXPECT_GE(controller_->proactive_migrations(), 1);
  const NestedVm* record = controller_->GetVm(vm);
  const HostVm* host = controller_->GetHost(record->host());
  ASSERT_NE(host, nullptr);
  EXPECT_FALSE(host->is_spot());
  // No revocation-driven downtime: only the live migration's brief pause.
  const SimDuration down = controller_->activity_log().Total(
      vm, ActivityKind::kDowntime, SimTime(), sim_.Now());
  EXPECT_LT(down.seconds(), 5.0);
}

TEST_F(ControllerTest, HigherBidSurvivesModerateSpike) {
  // Spike to 0.10 < bid 0.14: without proactive migration the VM simply
  // stays on the spot host and pays the elevated price.
  PriceTrace trace;
  trace.Append(SimTime(), 0.008);
  trace.Append(SimTime::FromSeconds(10000), 0.10);
  trace.Append(SimTime::FromSeconds(20000), 0.008);
  ControllerConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=multiple:2");
  Build(config, std::move(trace));
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(25000));
  EXPECT_EQ(controller_->revocation_events(), 0);
  EXPECT_EQ(controller_->GetVm(vm)->migrations(), 0);
}

}  // namespace
}  // namespace spotcheck
