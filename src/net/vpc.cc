#include "src/net/vpc.h"

namespace spotcheck {

std::string PrivateIp::ToString() const {
  return "10." + std::to_string(subnet >> 8) + "." +
         std::to_string(subnet & 0xff) + "." + std::to_string(host);
}

std::optional<uint16_t> VirtualPrivateCloud::SubnetFor(CustomerId customer) {
  Customer& entry = customers_[customer];
  if (entry.subnet < 0) {
    if (static_cast<int>(subnets_.size()) >= kMaxSubnets) {
      return std::nullopt;
    }
    entry.subnet = static_cast<int>(subnets_.size());
    subnets_.emplace_back();
  }
  return static_cast<uint16_t>(entry.subnet);
}

std::optional<PrivateIp> VirtualPrivateCloud::AssignPrivateIp(CustomerId customer,
                                                              NestedVmId vm) {
  if (const auto existing = IpOf(vm)) {
    return existing;
  }
  const auto subnet_id = SubnetFor(customer);
  if (!subnet_id.has_value()) {
    return std::nullopt;
  }
  // Probe the subnet from the bump cursor, wrapping once to reuse freed
  // addresses. `slots` grows as the cursor first reaches each octet.
  Subnet& subnet = subnets_[*subnet_id];
  for (int probes = 0; probes < kHostsPerSubnet; ++probes) {
    const size_t host = ((subnet.cursor - 1 + probes) % kHostsPerSubnet) + 1;
    if (host >= subnet.slots.size()) {
      subnet.slots.resize(host + 1);
    }
    Slot& slot = subnet.slots[host];
    if (slot.vm.valid()) {
      continue;
    }
    subnet.cursor = static_cast<int>(host % kHostsPerSubnet) + 1;
    slot = Slot{vm, InstanceId()};
    const PrivateIp ip{*subnet_id, static_cast<uint8_t>(host)};
    if (vm.value() >= ips_.size()) {
      ips_.resize(vm.value() + 1);
    }
    ips_[vm.value()] = ip;
    ++num_assigned_;
    return ip;
  }
  return std::nullopt;  // subnet exhausted
}

void VirtualPrivateCloud::ReleasePrivateIp(NestedVmId vm) {
  const auto ip = IpOf(vm);
  if (!ip.has_value()) {
    return;
  }
  subnets_[ip->subnet].slots[ip->host] = Slot{};
  ips_[vm.value()] = PrivateIp{};
  --num_assigned_;
}

std::optional<PrivateIp> VirtualPrivateCloud::IpOf(NestedVmId vm) const {
  if (vm.value() >= ips_.size() || ips_[vm.value()].host == 0) {
    return std::nullopt;
  }
  return ips_[vm.value()];
}

const VirtualPrivateCloud::Slot* VirtualPrivateCloud::SlotAt(
    PrivateIp ip) const {
  if (ip.subnet >= subnets_.size()) {
    return nullptr;
  }
  const std::vector<Slot>& slots = subnets_[ip.subnet].slots;
  if (ip.host >= slots.size() || !slots[ip.host].vm.valid()) {
    return nullptr;
  }
  return &slots[ip.host];
}

std::optional<NestedVmId> VirtualPrivateCloud::VmAt(PrivateIp ip) const {
  const Slot* slot = SlotAt(ip);
  if (slot == nullptr) {
    return std::nullopt;
  }
  return slot->vm;
}

void VirtualPrivateCloud::MoveAddress(NestedVmId vm, InstanceId host) {
  if (const auto ip = IpOf(vm)) {
    subnets_[ip->subnet].slots[ip->host].host = host;
  }
}

std::optional<NestedVmId> VirtualPrivateCloud::Route(PrivateIp ip) const {
  const Slot* slot = SlotAt(ip);
  if (slot == nullptr || !slot->host.valid()) {
    return std::nullopt;
  }
  return slot->vm;
}

std::optional<InstanceId> VirtualPrivateCloud::HostFor(PrivateIp ip) const {
  const Slot* slot = SlotAt(ip);
  if (slot == nullptr || !slot->host.valid()) {
    return std::nullopt;
  }
  return slot->host;
}

void VirtualPrivateCloud::SetPublicHead(CustomerId customer, NestedVmId vm) {
  customers_[customer].public_head = vm;
}

std::optional<NestedVmId> VirtualPrivateCloud::PublicHead(CustomerId customer) const {
  const auto it = customers_.find(customer);
  if (it == customers_.end() || !it->second.public_head.valid()) {
    return std::nullopt;
  }
  return it->second.public_head;
}

}  // namespace spotcheck
