#include "src/net/vpc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace spotcheck {
namespace {

const CustomerId kAlice(1);
const CustomerId kBob(2);
const InstanceId kHostA(1);
const InstanceId kHostB(2);
const NestedVmId kVm(1);

TEST(PrivateIpTest, Formatting) {
  EXPECT_EQ((PrivateIp{3, 17}.ToString()), "10.0.3.17");
  EXPECT_EQ((PrivateIp{0, 1}.ToString()), "10.0.0.1");
  // The subnet number spans the second and third octets: 258 = 1*256 + 2.
  EXPECT_EQ((PrivateIp{258, 9}.ToString()), "10.1.2.9");
}

TEST(VpcTest, SubnetsBeyondTheOldOctetBoundary) {
  // A fleet-scale VPC holds far more than 255 customer subnets; the 300th
  // customer lands past the old 8-bit subnet limit with a distinct address.
  VirtualPrivateCloud vpc;
  std::set<uint16_t> subnets;
  for (int i = 1; i <= 300; ++i) {
    const auto subnet = vpc.SubnetFor(CustomerId(i));
    ASSERT_TRUE(subnet.has_value()) << "customer " << i;
    EXPECT_TRUE(subnets.insert(*subnet).second);
  }
  const auto ip = vpc.AssignPrivateIp(CustomerId(300), NestedVmId(1));
  ASSERT_TRUE(ip.has_value());
  EXPECT_GT(ip->subnet, 255);
  EXPECT_EQ(vpc.VmAt(*ip), NestedVmId(1));
}

TEST(VpcTest, SubnetPerCustomerIsStable) {
  VirtualPrivateCloud vpc;
  const auto a1 = vpc.SubnetFor(kAlice);
  const auto b = vpc.SubnetFor(kBob);
  const auto a2 = vpc.SubnetFor(kAlice);
  ASSERT_TRUE(a1.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a1, *a2);
  EXPECT_NE(*a1, *b);
}

TEST(VpcTest, AssignIsIdempotentPerVm) {
  VirtualPrivateCloud vpc;
  const auto first = vpc.AssignPrivateIp(kAlice, NestedVmId(1));
  const auto second = vpc.AssignPrivateIp(kAlice, NestedVmId(1));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(vpc.num_assigned(), 1);
}

TEST(VpcTest, CustomersGetDistinctSubnets) {
  VirtualPrivateCloud vpc;
  const auto a = vpc.AssignPrivateIp(kAlice, NestedVmId(1));
  const auto b = vpc.AssignPrivateIp(kBob, NestedVmId(2));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(a->subnet, b->subnet);
}

TEST(VpcTest, ReverseLookup) {
  VirtualPrivateCloud vpc;
  const auto ip = vpc.AssignPrivateIp(kAlice, NestedVmId(7));
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(vpc.VmAt(*ip), NestedVmId(7));
  EXPECT_EQ(vpc.IpOf(NestedVmId(7)), *ip);
  EXPECT_FALSE(vpc.VmAt(PrivateIp{250, 250}).has_value());
}

TEST(VpcTest, ReleaseAllowsReuse) {
  VirtualPrivateCloud vpc;
  const auto ip = vpc.AssignPrivateIp(kAlice, NestedVmId(1));
  ASSERT_TRUE(ip.has_value());
  vpc.ReleasePrivateIp(NestedVmId(1));
  EXPECT_FALSE(vpc.IpOf(NestedVmId(1)).has_value());
  EXPECT_FALSE(vpc.VmAt(*ip).has_value());
  // The freed address is eventually handed out again.
  bool reused = false;
  for (int i = 0; i < VirtualPrivateCloud::kHostsPerSubnet; ++i) {
    const auto next = vpc.AssignPrivateIp(kAlice, NestedVmId(100 + i));
    ASSERT_TRUE(next.has_value());
    reused |= (*next == *ip);
  }
  EXPECT_TRUE(reused);
}

TEST(VpcTest, SubnetExhaustion) {
  VirtualPrivateCloud vpc;
  for (int i = 0; i < VirtualPrivateCloud::kHostsPerSubnet; ++i) {
    ASSERT_TRUE(vpc.AssignPrivateIp(kAlice, NestedVmId(i + 1)).has_value());
  }
  EXPECT_FALSE(vpc.AssignPrivateIp(kAlice, NestedVmId(9999)).has_value());
  // Another customer's subnet is unaffected.
  EXPECT_TRUE(vpc.AssignPrivateIp(kBob, NestedVmId(10000)).has_value());
}

TEST(VpcTest, PublicHead) {
  VirtualPrivateCloud vpc;
  EXPECT_FALSE(vpc.PublicHead(kAlice).has_value());
  vpc.SetPublicHead(kAlice, NestedVmId(1));
  EXPECT_EQ(vpc.PublicHead(kAlice), NestedVmId(1));
  vpc.SetPublicHead(kAlice, NestedVmId(2));
  EXPECT_EQ(vpc.PublicHead(kAlice), NestedVmId(2));
}

TEST(VpcTest, UniqueAddressesAcrossManyVms) {
  VirtualPrivateCloud vpc;
  std::set<std::string> seen;
  for (int i = 1; i <= 200; ++i) {
    const auto ip = vpc.AssignPrivateIp(kAlice, NestedVmId(i));
    ASSERT_TRUE(ip.has_value());
    EXPECT_TRUE(seen.insert(ip->ToString()).second) << ip->ToString();
  }
}

TEST(VpcTest, RoutesToCurrentHost) {
  VirtualPrivateCloud vpc;
  const auto ip = vpc.AssignPrivateIp(kAlice, kVm);
  ASSERT_TRUE(ip.has_value());
  vpc.MoveAddress(kVm, kHostA);
  EXPECT_EQ(vpc.Route(*ip), kVm);
  EXPECT_EQ(vpc.HostFor(*ip), kHostA);
}

TEST(VpcTest, MoveDetachesFromOldHost) {
  // Figure 4: detach from the source host, reattach on the destination; the
  // address (and therefore client endpoints) never changes.
  VirtualPrivateCloud vpc;
  const auto ip = vpc.AssignPrivateIp(kAlice, kVm);
  ASSERT_TRUE(ip.has_value());
  vpc.MoveAddress(kVm, kHostA);
  vpc.MoveAddress(kVm, kHostB);
  EXPECT_EQ(vpc.IpOf(kVm), *ip);
  EXPECT_EQ(vpc.Route(*ip), kVm);
  // The destination answers for the address; the source no longer does.
  EXPECT_EQ(vpc.HostFor(*ip), kHostB);
}

TEST(VpcTest, UnboundAddressDrops) {
  VirtualPrivateCloud vpc;
  EXPECT_FALSE(vpc.Route(PrivateIp{0, 1}).has_value());
  const auto ip = vpc.AssignPrivateIp(kAlice, kVm);
  ASSERT_TRUE(ip.has_value());
  // Assigned but not yet bound to a host: packets drop.
  EXPECT_FALSE(vpc.Route(*ip).has_value());
  EXPECT_FALSE(vpc.HostFor(*ip).has_value());
  vpc.MoveAddress(kVm, kHostA);
  // Releasing the address drops its forwarding with it.
  vpc.ReleasePrivateIp(kVm);
  EXPECT_FALSE(vpc.Route(*ip).has_value());
  EXPECT_FALSE(vpc.HostFor(*ip).has_value());
}

TEST(VpcTest, MultipleVmsPerHost) {
  // Slicing: several nested VMs behind one host, each with its own address.
  VirtualPrivateCloud vpc;
  const auto a = vpc.AssignPrivateIp(kAlice, kVm);
  const auto b = vpc.AssignPrivateIp(kAlice, NestedVmId(2));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  vpc.MoveAddress(kVm, kHostA);
  vpc.MoveAddress(NestedVmId(2), kHostA);
  EXPECT_EQ(vpc.Route(*a), kVm);
  EXPECT_EQ(vpc.Route(*b), NestedVmId(2));
  EXPECT_EQ(vpc.HostFor(*a), kHostA);
  EXPECT_EQ(vpc.HostFor(*b), kHostA);
}

// The map-based address table VirtualPrivateCloud replaced, kept as a
// reference model: ordered maps for subnets, addresses and public heads,
// beside a per-host NAT table and an address -> host map.
class MapAddressTable {
 public:
  std::optional<PrivateIp> Assign(CustomerId customer, NestedVmId vm) {
    if (const auto it = vm_ips_.find(vm); it != vm_ips_.end()) {
      return it->second;
    }
    if (!subnets_.contains(customer)) {
      if (static_cast<int>(subnets_.size()) >=
          VirtualPrivateCloud::kMaxSubnets) {
        return std::nullopt;
      }
      next_host_[next_subnet_] = 1;
      subnets_[customer] = next_subnet_++;
    }
    const uint16_t subnet = subnets_[customer];
    int& cursor = next_host_[subnet];
    constexpr int kHosts = VirtualPrivateCloud::kHostsPerSubnet;
    for (int probes = 0; probes < kHosts; ++probes) {
      const int host = ((cursor - 1 + probes) % kHosts) + 1;
      const PrivateIp candidate{subnet, static_cast<uint8_t>(host)};
      if (!ip_vms_.contains(candidate)) {
        cursor = (host % kHosts) + 1;
        vm_ips_[vm] = candidate;
        ip_vms_[candidate] = vm;
        return candidate;
      }
    }
    return std::nullopt;
  }
  void Release(NestedVmId vm) {
    const auto it = vm_ips_.find(vm);
    if (it == vm_ips_.end()) {
      return;
    }
    if (const auto host = address_hosts_.find(it->second);
        host != address_hosts_.end()) {
      tables_[host->second].erase(it->second);
      address_hosts_.erase(host);
    }
    ip_vms_.erase(it->second);
    vm_ips_.erase(it);
  }
  void Move(NestedVmId vm, InstanceId host) {
    const auto ip = IpOf(vm);
    if (!ip.has_value()) {
      return;
    }
    if (const auto prev = address_hosts_.find(*ip);
        prev != address_hosts_.end()) {
      tables_[prev->second].erase(*ip);
    }
    tables_[host][*ip] = vm;
    address_hosts_[*ip] = host;
  }
  std::optional<PrivateIp> IpOf(NestedVmId vm) const {
    const auto it = vm_ips_.find(vm);
    return it == vm_ips_.end() ? std::nullopt : std::optional(it->second);
  }
  std::optional<NestedVmId> VmAt(PrivateIp ip) const {
    const auto it = ip_vms_.find(ip);
    return it == ip_vms_.end() ? std::nullopt : std::optional(it->second);
  }
  std::optional<NestedVmId> Route(PrivateIp ip) const {
    const auto host = address_hosts_.find(ip);
    if (host == address_hosts_.end()) {
      return std::nullopt;
    }
    const auto& table = tables_.at(host->second);
    const auto it = table.find(ip);
    return it == table.end() ? std::nullopt : std::optional(it->second);
  }
  std::optional<InstanceId> HostFor(PrivateIp ip) const {
    const auto it = address_hosts_.find(ip);
    return it == address_hosts_.end() ? std::nullopt
                                      : std::optional(it->second);
  }
  void SetPublicHead(CustomerId customer, NestedVmId vm) {
    public_heads_[customer] = vm;
  }
  std::optional<NestedVmId> PublicHead(CustomerId customer) const {
    const auto it = public_heads_.find(customer);
    return it == public_heads_.end() ? std::nullopt
                                     : std::optional(it->second);
  }
  int num_assigned() const { return static_cast<int>(vm_ips_.size()); }

 private:
  std::map<CustomerId, uint16_t> subnets_;
  std::map<NestedVmId, PrivateIp> vm_ips_;
  std::map<PrivateIp, NestedVmId> ip_vms_;
  std::map<uint16_t, int> next_host_;
  std::map<CustomerId, NestedVmId> public_heads_;
  uint16_t next_subnet_ = 0;
  std::map<InstanceId, std::map<PrivateIp, NestedVmId>> tables_;
  std::map<PrivateIp, InstanceId> address_hosts_;
};

TEST(VpcTest, SlotTableMatchesMapReferenceModel) {
  constexpr int kCustomers = 320;  // subnet numbers past 255
  constexpr int kHosts = 40;
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    VirtualPrivateCloud vpc;
    MapAddressTable model;
    std::mt19937_64 rng(seed);
    std::vector<NestedVmId> vms;  // every VM ever assigned
    std::set<PrivateIp> handed_out;
    int exhausted = 0;
    int reused = 0;
    const auto expect_same = [&](NestedVmId vm, PrivateIp ip, int step) {
      ASSERT_EQ(vpc.IpOf(vm), model.IpOf(vm)) << "step " << step;
      ASSERT_EQ(vpc.VmAt(ip), model.VmAt(ip)) << "step " << step;
      ASSERT_EQ(vpc.Route(ip), model.Route(ip)) << "step " << step;
      ASSERT_EQ(vpc.HostFor(ip), model.HostFor(ip)) << "step " << step;
      ASSERT_EQ(vpc.num_assigned(), model.num_assigned()) << "step " << step;
    };
    // A public head set before the customer's first address must not take
    // a subnet number, or every later subnet would be numbered differently.
    vpc.SetPublicHead(CustomerId(kCustomers), NestedVmId(1'000'000));
    model.SetPublicHead(CustomerId(kCustomers), NestedVmId(1'000'000));
    for (int step = 0; step < 30'000; ++step) {
      const uint64_t op = rng() % 20;
      NestedVmId vm;
      if (op < 9 || vms.empty()) {
        // Customer 1 takes a third of the assignments, so its subnet runs
        // out, and its cursor wraps to reuse released addresses.
        const CustomerId customer(rng() % 3 == 0 ? 1
                                                 : 1 + rng() % kCustomers);
        vm = op == 0 && !vms.empty()
                 ? vms[rng() % vms.size()]  // idempotent re-assignment
                 : NestedVmId(vms.size() + 1);
        const auto got = vpc.AssignPrivateIp(customer, vm);
        ASSERT_EQ(got, model.Assign(customer, vm)) << "step " << step;
        if (vm.value() > vms.size()) {
          vms.push_back(vm);
          if (!got.has_value()) {
            ++exhausted;
          } else if (!handed_out.insert(*got).second) {
            ++reused;
          }
        }
      } else if (op < 14) {
        vm = vms[rng() % vms.size()];
        const InstanceId host(1 + rng() % kHosts);
        vpc.MoveAddress(vm, host);
        model.Move(vm, host);
      } else if (op < 19) {
        vm = vms[rng() % vms.size()];
        const auto ip = vpc.IpOf(vm);
        vpc.ReleasePrivateIp(vm);
        model.Release(vm);
        if (ip.has_value()) {
          expect_same(vm, *ip, step);
        }
      } else {
        const CustomerId customer(1 + rng() % (kCustomers + 10));
        vm = vms[rng() % vms.size()];
        vpc.SetPublicHead(customer, vm);
        model.SetPublicHead(customer, vm);
        ASSERT_EQ(vpc.PublicHead(customer), model.PublicHead(customer));
      }
      const auto ip = model.IpOf(vm);
      expect_same(vm, ip.value_or(PrivateIp{0, 1}), step);
    }
    for (const NestedVmId vm : vms) {
      ASSERT_EQ(vpc.IpOf(vm), model.IpOf(vm));
    }
    for (const PrivateIp ip : handed_out) {
      expect_same(NestedVmId(), ip, -1);
    }
    for (int c = 1; c <= kCustomers + 10; ++c) {
      ASSERT_EQ(vpc.PublicHead(CustomerId(c)), model.PublicHead(CustomerId(c)));
    }
    EXPECT_GT(exhausted, 0);
    EXPECT_GT(reused, 0);
    EXPECT_TRUE(std::any_of(handed_out.begin(), handed_out.end(),
                            [](PrivateIp ip) { return ip.subnet > 255; }));
  }
}

}  // namespace
}  // namespace spotcheck
