#include "src/virt/host_vm.h"

#include <gtest/gtest.h>

#include "src/virt/nested_vm.h"

namespace spotcheck {
namespace {

const MarketKey kLarge{InstanceType::kM3Large, AvailabilityZone{0}};

NestedVmSpec MediumSpec() { return NestedVmSpec::ForType(InstanceType::kM3Medium); }

TEST(HostVmTest, CapacityReservesHypervisorOverhead) {
  const HostVm host(InstanceId(1), kLarge, /*is_spot=*/true);
  // 7.5 GB * 0.8 = 6144 MB usable.
  EXPECT_NEAR(host.capacity_mb(), 7.5 * 1024 * 0.8, 1e-9);
  EXPECT_EQ(host.used_mb(), 0.0);
  EXPECT_TRUE(host.empty());
  EXPECT_TRUE(host.is_spot());
  EXPECT_EQ(host.type(), InstanceType::kM3Large);
}

TEST(HostVmTest, TwoMediumsFitOneLarge) {
  HostVm host(InstanceId(1), kLarge, true);
  EXPECT_TRUE(host.CanHost(MediumSpec()));
  EXPECT_TRUE(host.AddVm(NestedVmId(1), MediumSpec()));
  EXPECT_TRUE(host.AddVm(NestedVmId(2), MediumSpec()));
  EXPECT_EQ(host.num_vms(), 2);
  // The third does not fit and nothing changes.
  EXPECT_FALSE(host.CanHost(MediumSpec()));
  EXPECT_FALSE(host.AddVm(NestedVmId(3), MediumSpec()));
  EXPECT_EQ(host.num_vms(), 2);
}

TEST(HostVmTest, RemoveRestoresCapacity) {
  HostVm host(InstanceId(1), kLarge, true);
  host.AddVm(NestedVmId(1), MediumSpec());
  host.AddVm(NestedVmId(2), MediumSpec());
  host.RemoveVm(NestedVmId(1), MediumSpec());
  EXPECT_EQ(host.num_vms(), 1);
  EXPECT_TRUE(host.CanHost(MediumSpec()));
  // Removing an absent VM is a no-op.
  host.RemoveVm(NestedVmId(9), MediumSpec());
  EXPECT_EQ(host.num_vms(), 1);
  host.RemoveVm(NestedVmId(2), MediumSpec());
  EXPECT_TRUE(host.empty());
  EXPECT_EQ(host.used_mb(), 0.0);
}

TEST(HostVmTest, FreeMbTracksAdditions) {
  HostVm host(InstanceId(1), kLarge, true);
  const double before = host.free_mb();
  host.AddVm(NestedVmId(1), MediumSpec());
  EXPECT_NEAR(host.free_mb(), before - MediumSpec().memory_mb, 1e-9);
}

TEST(NestedVmTest, StateNamesAndAliveness) {
  NestedVm vm(NestedVmId(1), CustomerId(1), MediumSpec());
  EXPECT_EQ(NestedVmStateName(vm.state()), "provisioning");
  EXPECT_TRUE(vm.alive());
  vm.set_state(NestedVmState::kRunning);
  EXPECT_EQ(NestedVmStateName(vm.state()), "running");
  vm.set_state(NestedVmState::kDegraded);
  EXPECT_TRUE(vm.alive());
  vm.set_state(NestedVmState::kFailed);
  EXPECT_FALSE(vm.alive());
  vm.set_state(NestedVmState::kTerminated);
  EXPECT_FALSE(vm.alive());
}

TEST(NestedVmTest, PlacementBookkeeping) {
  NestedVm vm(NestedVmId(1), CustomerId(2), MediumSpec());
  EXPECT_FALSE(vm.host().valid());
  vm.set_host(InstanceId(4));
  vm.set_backup(BackupServerId(5));
  EXPECT_EQ(vm.host(), InstanceId(4));
  EXPECT_EQ(vm.backup(), BackupServerId(5));
  EXPECT_EQ(vm.customer(), CustomerId(2));
  EXPECT_EQ(vm.migrations(), 0);
  vm.count_migration();
  EXPECT_EQ(vm.migrations(), 1);
}

TEST(NestedVmSpecTest, ForTypeDerivesShape) {
  const NestedVmSpec spec = NestedVmSpec::ForType(InstanceType::kM3Xlarge);
  EXPECT_EQ(spec.type, InstanceType::kM3Xlarge);
  EXPECT_NEAR(spec.memory_mb, 15.0 * 1024 * 0.8, 1e-9);
  EXPECT_EQ(spec.vcpus, 4);
  EXPECT_FALSE(spec.stateless);
}

}  // namespace
}  // namespace spotcheck
