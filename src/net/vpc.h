// Virtual Private Cloud: address management and the data plane (Section 3.4,
// Figure 4).
//
// SpotCheck places all of its native servers in one VPC so it can assign
// private IP addresses to nested VMs directly and move them between hosts on
// migration. Each customer gets a subnet within the shared data plane, and
// one public IP attached to a designated "head" nested VM for Internet
// access.
//
// The native platform is unaware of nested VMs, so the nested hypervisor on
// the host answering for an address forwards its packets to the resident
// nested VM. On migration the address is detached from the source host and
// reattached on the destination -- the nested VM's address never changes.
//
// Each address is stored once: one slot per host octet in its subnet records
// both the owning VM and the host that forwards it, so a migration is one
// slot write. A dense array indexed by VM id gives each VM its address (the
// FleetTable idiom of DESIGN.md §14.1).

#ifndef SRC_NET_VPC_H_
#define SRC_NET_VPC_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/ids.h"

namespace spotcheck {

// A private IPv4 address within the VPC, e.g. "10.0.3.17". The subnet
// number spans the second and third octets (a 10.0.0.0/8 data plane), so a
// fleet-scale deployment can hold tens of thousands of customer subnets;
// subnets below 256 render exactly as the old 10.0.<subnet>.<host> form.
struct PrivateIp {
  uint16_t subnet = 0;  // second+third octets = customer subnet
  uint8_t host = 0;

  auto operator<=>(const PrivateIp&) const = default;
  std::string ToString() const;
};

class VirtualPrivateCloud {
 public:
  // The VPC spans 10.<subnet/256>.<subnet%256>.0/24 per customer: up to
  // 65535 subnets of 254 usable addresses each (~16.6M addresses), sized
  // for million-VM fleets. Each customer still gets exactly one /24.
  static constexpr int kMaxSubnets = 65535;
  static constexpr int kHostsPerSubnet = 254;

  // Allocates (or returns the existing) subnet for a customer. Subnets are
  // numbered from 0 in first-use order. Returns nullopt when the VPC is out
  // of subnets.
  std::optional<uint16_t> SubnetFor(CustomerId customer);

  // Allocates a free private address in the customer's subnet for a nested
  // VM; nullopt when the subnet (or VPC) is exhausted. Idempotent per VM.
  // A bump cursor starting at .1 hands addresses out in order and wraps
  // once to reuse freed ones. The address drops packets until MoveAddress
  // binds it to a host.
  std::optional<PrivateIp> AssignPrivateIp(CustomerId customer, NestedVmId vm);

  // Releases the VM's address back to its subnet, dropping its forwarding.
  void ReleasePrivateIp(NestedVmId vm);

  std::optional<PrivateIp> IpOf(NestedVmId vm) const;
  // Reverse lookup within the data plane.
  std::optional<NestedVmId> VmAt(PrivateIp ip) const;

  // Points the VM's address at `host`, detaching it from the previous one
  // (Figure 4's detach-then-reattach). No-op when the VM has no address.
  void MoveAddress(NestedVmId vm, InstanceId host);
  // Delivers a packet: the nested VM behind `ip`, or nullopt (dropped) when
  // no host forwards it yet.
  std::optional<NestedVmId> Route(PrivateIp ip) const;
  // Host currently answering for the address.
  std::optional<InstanceId> HostFor(PrivateIp ip) const;

  // Designates `vm` as the customer's public head (detaching any previous
  // head); the head carries the customer's single public IP. Does not
  // allocate a subnet.
  void SetPublicHead(CustomerId customer, NestedVmId vm);
  std::optional<NestedVmId> PublicHead(CustomerId customer) const;

  int num_assigned() const { return num_assigned_; }

 private:
  // One address: who owns it and which host forwards it.
  struct Slot {
    NestedVmId vm;    // invalid while the address is free
    InstanceId host;  // invalid until bound to a host
  };
  struct Subnet {
    int cursor = 1;  // next host octet to probe; .0 is the network address
    // Indexed by host octet, grown as the cursor first reaches each octet.
    std::vector<Slot> slots;
  };
  struct Customer {
    int subnet = -1;  // index into subnets_; -1 until the first SubnetFor
    NestedVmId public_head;
  };

  const Slot* SlotAt(PrivateIp ip) const;

  std::map<CustomerId, Customer> customers_;
  std::vector<Subnet> subnets_;  // by subnet number
  std::vector<PrivateIp> ips_;   // by VM id; host octet 0 means none
  int num_assigned_ = 0;
};

}  // namespace spotcheck

#endif  // SRC_NET_VPC_H_
