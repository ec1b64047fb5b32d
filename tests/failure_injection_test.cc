// Failure-injection tests: the rare/ugly paths of Section 4.3 -- on-demand
// capacity exhaustion during an evacuation, revocations racing planned
// moves, and customer releases racing migrations. The invariant under every
// failure: VM state is never lost while a backup server holds it.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/controller.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

const MarketKey kMedium{InstanceType::kM3Medium, AvailabilityZone{0}};

PriceTrace OneSpikeTrace() {
  PriceTrace trace;
  trace.Append(SimTime(), 0.008);
  trace.Append(SimTime::FromSeconds(10000), 0.50);
  trace.Append(SimTime::FromSeconds(20000), 0.008);
  return trace;
}

class FailureInjectionTest : public testing::Test {
 protected:
  void Build(double od_failure_prob, ControllerConfig config = {},
             PriceTrace trace = OneSpikeTrace()) {
    markets_ = std::make_unique<MarketPlace>(&sim_);
    markets_->AddWithTrace(kMedium, std::move(trace));
    NativeCloudConfig cloud_config;
    cloud_config.sample_latencies = false;
    cloud_config.on_demand_unavailable_probability = od_failure_prob;
    cloud_ = std::make_unique<NativeCloud>(&sim_, markets_.get(), cloud_config);
    controller_ = std::make_unique<SpotCheckController>(&sim_, cloud_.get(),
                                                        markets_.get(), config);
    customer_ = controller_->RegisterCustomer("victim");
  }

  Simulator sim_;
  std::unique_ptr<MarketPlace> markets_;
  std::unique_ptr<NativeCloud> cloud_;
  std::unique_ptr<SpotCheckController> controller_;
  CustomerId customer_;
};

TEST_F(FailureInjectionTest, OnDemandShortageDelaysButNeverLosesTheVm) {
  // Every other on-demand request fails: the evacuation destination takes
  // several retries. The VM's state sits safely on the backup server; its
  // downtime extends, but it comes back.
  Build(/*od_failure_prob=*/0.5);
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(30000));
  const NestedVm* record = controller_->GetVm(vm);
  EXPECT_NE(record->state(), NestedVmState::kFailed);
  EXPECT_TRUE(record->state() == NestedVmState::kRunning ||
              record->state() == NestedVmState::kDegraded)
      << NestedVmStateName(record->state());
  EXPECT_EQ(controller_->engine().failed_migrations(), 0);
  // Downtime includes the destination wait but stays well under the spike.
  const SimDuration down = controller_->activity_log().Total(
      vm, ActivityKind::kDowntime, SimTime(), sim_.Now());
  EXPECT_GT(down.seconds(), 20.0);
  EXPECT_LT(down.seconds(), 3600.0);
}

TEST_F(FailureInjectionTest, TotalOnDemandOutageRecoversViaRetries) {
  // On-demand capacity is gone during the spike and returns only through
  // retry luck at 90% failure; the fleet still converges to running.
  Build(/*od_failure_prob=*/0.9);
  for (int i = 0; i < 4; ++i) {
    controller_->RequestServer(customer_);
  }
  sim_.RunUntil(SimTime::FromSeconds(40000));
  EXPECT_EQ(controller_->engine().failed_migrations(), 0);
  EXPECT_GE(controller_->RunningVmCount(), 3);
  std::string error;
  EXPECT_TRUE(controller_->ValidateInvariants(&error)) << error;
}

TEST_F(FailureInjectionTest, ReleaseDuringEvacuationIsClean) {
  Build(0.0);
  const NestedVmId vm = controller_->RequestServer(customer_);
  // Release mid-warning, while the evacuation is in flight.
  sim_.RunUntil(SimTime::FromSeconds(10050));
  controller_->ReleaseServer(vm);
  sim_.RunUntil(SimTime::FromSeconds(30000));
  EXPECT_EQ(controller_->GetVm(vm)->state(), NestedVmState::kTerminated);
  EXPECT_EQ(controller_->backup_pool().num_assigned(), 0);
  std::string error;
  EXPECT_TRUE(controller_->ValidateInvariants(&error)) << error;
}

TEST_F(FailureInjectionTest, BackToBackSpikesHandleRepatriationRace) {
  // The price recovers for barely ten minutes before spiking again: the
  // repatriation's freshly requested spot host is revoked almost instantly.
  PriceTrace trace;
  trace.Append(SimTime(), 0.008);
  trace.Append(SimTime::FromSeconds(10000), 0.50);
  trace.Append(SimTime::FromSeconds(20000), 0.008);
  trace.Append(SimTime::FromSeconds(20600), 0.50);
  trace.Append(SimTime::FromSeconds(30000), 0.008);
  Build(0.0, ControllerConfig{}, std::move(trace));
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(45000));
  const NestedVm* record = controller_->GetVm(vm);
  EXPECT_NE(record->state(), NestedVmState::kFailed);
  EXPECT_TRUE(record->state() == NestedVmState::kRunning ||
              record->state() == NestedVmState::kDegraded);
  // Ultimately back on spot.
  const HostVm* host = controller_->GetHost(record->host());
  ASSERT_NE(host, nullptr);
  EXPECT_TRUE(host->is_spot());
  std::string error;
  EXPECT_TRUE(controller_->ValidateInvariants(&error)) << error;
}

TEST_F(FailureInjectionTest, SpotLaunchFailureFallsBackToOnDemand) {
  // The initial placement races a spike: the spot request fails (price above
  // bid by the time it would start) and the VM lands on on-demand instead.
  PriceTrace trace;
  trace.Append(SimTime(), 0.008);
  trace.Append(SimTime::FromSeconds(100), 0.50);  // spike before launch done
  trace.Append(SimTime::FromSeconds(30000), 0.008);
  Build(0.0, ControllerConfig{}, std::move(trace));
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(5000));
  const NestedVm* record = controller_->GetVm(vm);
  ASSERT_EQ(record->state(), NestedVmState::kRunning);
  const HostVm* host = controller_->GetHost(record->host());
  ASSERT_NE(host, nullptr);
  EXPECT_FALSE(host->is_spot());
  // And returns to spot when the price recovers.
  sim_.RunUntil(SimTime::FromSeconds(32000));
  const HostVm* later = controller_->GetHost(controller_->GetVm(vm)->host());
  ASSERT_NE(later, nullptr);
  EXPECT_TRUE(later->is_spot());
}

TEST_F(FailureInjectionTest, XenLiveLosesLargeVmsUnderRevocation) {
  // The negative control: without bounded-time migration, a big VM dies.
  ControllerConfig config;
  config.mechanism = MigrationMechanism::kXenLiveMigration;
  config.nested_type = InstanceType::kR3Xlarge;  // ~24 GB nested VM
  PriceTrace trace;
  trace.Append(SimTime(), 0.03);
  trace.Append(SimTime::FromSeconds(10000), 5.00);
  trace.Append(SimTime::FromSeconds(20000), 0.03);
  markets_ = std::make_unique<MarketPlace>(&sim_);
  markets_->AddWithTrace(MarketKey{InstanceType::kR3Xlarge, AvailabilityZone{0}},
                         std::move(trace));
  NativeCloudConfig cloud_config;
  cloud_config.sample_latencies = false;
  cloud_ = std::make_unique<NativeCloud>(&sim_, markets_.get(), cloud_config);
  controller_ = std::make_unique<SpotCheckController>(&sim_, cloud_.get(),
                                                      markets_.get(), config);
  const NestedVmId vm =
      controller_->RequestServer(controller_->RegisterCustomer("risky"));
  sim_.RunUntil(SimTime::FromSeconds(30000));
  EXPECT_EQ(controller_->GetVm(vm)->state(), NestedVmState::kFailed);
  EXPECT_EQ(controller_->engine().failed_migrations(), 1);
}

TEST_F(FailureInjectionTest, ConnectionsSurviveInjectedEvacuations) {
  Build(0.0);
  const NestedVmId vm = controller_->RequestServer(customer_);
  const SimTime opened = SimTime::FromSeconds(1000);
  sim_.RunUntil(SimTime::FromSeconds(30000));
  // One evacuation + one repatriation later. A client connection opened at
  // `opened` breaks only on an outage longer than its 60 s TCP timeout
  // (Section 5), so every outage since then must stay within it.
  constexpr SimDuration kTcpTimeout = SimDuration::Seconds(60);
  const std::vector<ActivityInterval>* intervals =
      controller_->activity_log().IntervalsFor(vm);
  ASSERT_NE(intervals, nullptr);
  int outages = 0;
  for (const ActivityInterval& interval : *intervals) {
    if (interval.kind != ActivityKind::kDowntime || interval.start < opened) {
      continue;
    }
    ++outages;
    EXPECT_LE(interval.end - interval.start, kTcpTimeout)
        << "outage at " << interval.start.seconds() << " s";
  }
  EXPECT_GE(outages, 2);
}

}  // namespace
}  // namespace spotcheck
