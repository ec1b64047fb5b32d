// Feature-matrix end-to-end sweeps: every combination of the extension
// features (staging, predictive migration, stateless fleets, multi-zone)
// must preserve the core guarantees -- no lost VMs, consistent state,
// bounded downtime -- over a month of simulated churn.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/core/controller.h"
#include "src/policy/policy_spec.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

// (use_staging, predictive, stateless_half, num_zones)
using FeaturePoint = std::tuple<bool, bool, bool, int>;

class FeatureMatrixTest : public testing::TestWithParam<FeaturePoint> {
 protected:
  static constexpr int kVms = 16;

  FeatureMatrixTest() : markets_(&sim_) {
    NativeCloudConfig cloud_config;
    cloud_config.market_seed = 3;
    cloud_config.latency_seed = 3 ^ 0xabc;
    cloud_config.market_horizon = SimDuration::Days(40);
    cloud_ = std::make_unique<NativeCloud>(&sim_, &markets_, cloud_config);
    ControllerConfig config;
    config.policy_spec = ParsePolicySpecOrExit("map=4p-ed");
    config.use_staging = std::get<0>(GetParam());
    config.enable_predictive = std::get<1>(GetParam());
    config.num_zones = std::get<3>(GetParam());
    config.seed = 3;
    controller_ =
        std::make_unique<SpotCheckController>(&sim_, cloud_.get(), &markets_, config);
    const CustomerId customer = controller_->RegisterCustomer("matrix");
    const bool stateless_half = std::get<2>(GetParam());
    for (int i = 0; i < kVms; ++i) {
      vms_.push_back(
          controller_->RequestServer(customer, stateless_half && i % 2 == 0));
    }
    sim_.RunUntil(SimTime() + SimDuration::Days(30));
  }

  Simulator sim_;
  MarketPlace markets_;
  std::unique_ptr<NativeCloud> cloud_;
  std::unique_ptr<SpotCheckController> controller_;
  std::vector<NestedVmId> vms_;
};

TEST_P(FeatureMatrixTest, NoVmLostAndInvariantsHold) {
  for (NestedVmId vm : vms_) {
    EXPECT_NE(controller_->GetVm(vm)->state(), NestedVmState::kFailed);
  }
  EXPECT_EQ(controller_->vms_lost(), 0);
  std::string error;
  EXPECT_TRUE(controller_->ValidateInvariants(&error)) << error;
}

TEST_P(FeatureMatrixTest, FleetKeepsServing) {
  int settled = 0;
  for (NestedVmId vm : vms_) {
    const NestedVmState state = controller_->GetVm(vm)->state();
    if (state == NestedVmState::kRunning || state == NestedVmState::kDegraded) {
      ++settled;
    }
  }
  EXPECT_GE(settled, kVms - 3);
}

TEST_P(FeatureMatrixTest, DowntimeStaysBounded) {
  const double down = controller_->activity_log().MeanFraction(
      ActivityKind::kDowntime, SimTime(), sim_.Now());
  EXPECT_LT(down, 0.01);
}

TEST_P(FeatureMatrixTest, NoVmStrandedOffSpotAtQuietEnd) {
  // After 30 days the markets are (almost surely) between spikes; nearly all
  // stateful, settled VMs should be back on spot hosts -- catching waitlist
  // leaks that strand VMs on on-demand.
  int on_od = 0;
  for (NestedVmId vm : vms_) {
    const NestedVm* record = controller_->GetVm(vm);
    if (record->state() != NestedVmState::kRunning &&
        record->state() != NestedVmState::kDegraded) {
      continue;
    }
    const HostVm* host = controller_->GetHost(record->host());
    if (host != nullptr && !host->is_spot()) {
      ++on_od;
    }
  }
  // A spike could be live right at day 30 for one pool (a quarter of the
  // fleet); anything beyond that indicates stranding.
  EXPECT_LE(on_od, kVms / 4);
}

INSTANTIATE_TEST_SUITE_P(Matrix, FeatureMatrixTest,
                         testing::Combine(testing::Bool(), testing::Bool(),
                                          testing::Bool(), testing::Values(1, 2)));

}  // namespace
}  // namespace spotcheck
