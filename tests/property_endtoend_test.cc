// End-to-end property tests: run the whole system (markets, cloud,
// controller, fleet) over a month of simulated time for every policy and
// several seeds, then check the structural and accounting invariants that
// must survive ANY history: no lost VMs, consistent placement/backup/network
// state, sane accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "src/core/controller.h"
#include "src/policy/policy_spec.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

// The five Table-2 pool strategies, addressed by index. The index is a
// one-byte struct with no printer, so gtest names each instance by its raw
// bytes: ".../(1-byte object <02>, 11)" is 4P-ED at seed 11.
constexpr const char* kPolicies[] = {"map=1p-m", "map=2p-ml", "map=4p-ed",
                                     "map=4p-cost", "map=4p-st"};
struct PolicyIndex {
  uint8_t index;
};
using EndToEndPoint = std::tuple<PolicyIndex, uint64_t>;

class EndToEndPropertyTest : public testing::TestWithParam<EndToEndPoint> {
 protected:
  static constexpr int kVms = 24;

  EndToEndPropertyTest() : markets_(&sim_) {
    NativeCloudConfig cloud_config;
    cloud_config.market_seed = std::get<1>(GetParam());
    cloud_config.latency_seed = std::get<1>(GetParam()) ^ 0xabc;
    cloud_config.market_horizon = SimDuration::Days(40);
    cloud_ = std::make_unique<NativeCloud>(&sim_, &markets_, cloud_config);
    ControllerConfig config;
    config.policy_spec =
        ParsePolicySpecOrExit(kPolicies[std::get<0>(GetParam()).index]);
    config.seed = std::get<1>(GetParam());
    controller_ =
        std::make_unique<SpotCheckController>(&sim_, cloud_.get(), &markets_, config);
    const CustomerId alice = controller_->RegisterCustomer("alice");
    const CustomerId bob = controller_->RegisterCustomer("bob");
    for (int i = 0; i < kVms; ++i) {
      vms_.push_back(controller_->RequestServer(i % 2 == 0 ? alice : bob));
    }
    sim_.RunUntil(SimTime() + SimDuration::Days(30));
  }

  Simulator sim_;
  MarketPlace markets_;
  std::unique_ptr<NativeCloud> cloud_;
  std::unique_ptr<SpotCheckController> controller_;
  std::vector<NestedVmId> vms_;
};

TEST_P(EndToEndPropertyTest, NoVmIsEverLost) {
  // The headline guarantee: bounded-time migration never loses VM state.
  for (NestedVmId vm : vms_) {
    EXPECT_NE(controller_->GetVm(vm)->state(), NestedVmState::kFailed)
        << vm.ToString();
  }
  EXPECT_EQ(controller_->engine().failed_migrations(), 0);
}

TEST_P(EndToEndPropertyTest, StructuralInvariantsHold) {
  std::string error;
  EXPECT_TRUE(controller_->ValidateInvariants(&error)) << error;
}

TEST_P(EndToEndPropertyTest, DowntimeFractionsSane) {
  const ActivityLog& log = controller_->activity_log();
  const double down =
      log.MeanFraction(ActivityKind::kDowntime, SimTime(), sim_.Now());
  const double degraded =
      log.MeanFraction(ActivityKind::kDegraded, SimTime(), sim_.Now());
  EXPECT_GE(down, 0.0);
  EXPECT_LT(down, 0.02);  // far from 2% even for the stormiest policy
  EXPECT_GE(degraded, 0.0);
  EXPECT_LT(degraded, 0.05);
}

TEST_P(EndToEndPropertyTest, AccountingIsPositiveAndBounded) {
  const auto report = controller_->ComputeCostReport();
  EXPECT_GT(report.native_cost, 0.0);
  EXPECT_GT(report.vm_hours, 0.0);
  // VM-hours cannot exceed fleet-size x elapsed time.
  EXPECT_LE(report.vm_hours, kVms * sim_.Now().hours() + 1e-6);
  // Sanity band: cheaper than on-demand, more expensive than free.
  EXPECT_GT(report.avg_cost_per_vm_hour, 0.001);
  EXPECT_LT(report.avg_cost_per_vm_hour, 0.07);
}

TEST_P(EndToEndPropertyTest, EveryFleetMemberStillServes) {
  int settled = 0;
  for (NestedVmId vm : vms_) {
    const NestedVmState state = controller_->GetVm(vm)->state();
    if (state == NestedVmState::kRunning || state == NestedVmState::kDegraded) {
      ++settled;
    }
  }
  // Transitional states are possible at the instant we stop, but the vast
  // majority of the fleet must be serving.
  EXPECT_GE(settled, kVms - 4);
}

TEST_P(EndToEndPropertyTest, AddressesAreStableAcrossHistory) {
  // Each VM kept one private IP for its whole life, and distinct VMs have
  // distinct addresses.
  std::set<std::string> seen;
  for (NestedVmId vm : vms_) {
    const auto ip = controller_->vpc().IpOf(vm);
    ASSERT_TRUE(ip.has_value()) << vm.ToString();
    EXPECT_TRUE(seen.insert(ip->ToString()).second) << ip->ToString();
  }
}

TEST_P(EndToEndPropertyTest, StormAccountingConsistent) {
  const RevocationStormTracker& storms = controller_->storms();
  // Each evacuation belongs to exactly one recorded batch.
  EXPECT_EQ(storms.total_revoked_vms(), controller_->engine().evacuations());
  EXPECT_LE(storms.max_batch(), kVms);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, EndToEndPropertyTest,
    testing::Combine(testing::Values(PolicyIndex{0}, PolicyIndex{1},
                                     PolicyIndex{2}, PolicyIndex{3},
                                     PolicyIndex{4}),
                     testing::Values(2u, 11u, 23u)));

}  // namespace
}  // namespace spotcheck
