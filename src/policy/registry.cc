#include "src/policy/registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/policy/builtin_strategies.h"

namespace spotcheck {
namespace {

// The nested type itself plus progressively larger same-family hvm types
// (slicing targets), in catalog (size) order. For m3.medium this is exactly
// {m3.medium, m3.large, m3.xlarge, m3.2xlarge} as in Table 2.
std::vector<InstanceType> FamilyLadder(InstanceType nested) {
  const std::string_view name = InstanceTypeName(nested);
  const std::string_view family = name.substr(0, name.find('.'));
  std::vector<InstanceType> ladder;
  for (const InstanceTypeInfo& info : InstanceCatalog()) {
    if (!info.hvm_capable) {
      continue;
    }
    const std::string_view candidate_family =
        info.name.substr(0, info.name.find('.'));
    if (candidate_family == family && NestedSlotsPerHost(info.type, nested) >= 1) {
      ladder.push_back(info.type);
    }
  }
  // The catalog lists each family smallest-first already; keep that order.
  if (ladder.empty()) {
    ladder.push_back(nested);
  }
  return ladder;
}

}  // namespace

std::vector<MarketKey> PoolCandidates(
    size_t pools, InstanceType nested,
    const std::vector<AvailabilityZone>& zones) {
  const std::vector<InstanceType> ladder = FamilyLadder(nested);
  pools = std::min(std::max<size_t>(pools, 1), ladder.size());
  std::vector<MarketKey> candidates;
  const std::vector<AvailabilityZone> effective_zones =
      zones.empty() ? std::vector<AvailabilityZone>{AvailabilityZone{0}} : zones;
  candidates.reserve(pools * effective_zones.size());
  for (const AvailabilityZone& zone : effective_zones) {
    for (size_t i = 0; i < pools; ++i) {
      candidates.push_back(MarketKey{ladder[i], zone});
    }
  }
  return candidates;
}

PolicyRegistry& PolicyRegistry::Instance() {
  static PolicyRegistry* instance = new PolicyRegistry();
  return *instance;
}

PolicyRegistry::PolicyRegistry() { RegisterBuiltinStrategies(*this); }

void PolicyRegistry::RegisterBid(const std::string& name, BidFactory factory) {
  const std::lock_guard<std::mutex> lock(mu_);
  bids_[name] = std::move(factory);
}

void PolicyRegistry::RegisterPool(const std::string& name, size_t ladder_pools,
                                  PoolFactory factory) {
  const std::lock_guard<std::mutex> lock(mu_);
  pools_[name] = PoolEntry{ladder_pools, std::move(factory)};
}

bool PolicyRegistry::HasBid(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return bids_.contains(name);
}

bool PolicyRegistry::HasPool(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return pools_.contains(name);
}

std::vector<std::string> PolicyRegistry::BidNames() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(bids_.size());
  for (const auto& [name, factory] : bids_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> PolicyRegistry::PoolNames() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(pools_.size());
  for (const auto& [name, entry] : pools_) {
    names.push_back(name);
  }
  return names;
}

std::unique_ptr<BidStrategy> PolicyRegistry::CreateBid(
    const StrategySpec& spec, std::string* error) const {
  BidFactory factory;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = bids_.find(spec.name);
    if (it == bids_.end()) {
      if (error != nullptr) {
        *error = "unknown bid strategy '" + spec.name + "'";
      }
      return nullptr;
    }
    factory = it->second;
  }
  return factory(spec, error);
}

std::unique_ptr<PoolSelectionStrategy> PolicyRegistry::CreatePool(
    const StrategySpec& spec, const PoolStrategyInit& init,
    std::string* error) const {
  PoolFactory factory;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = pools_.find(spec.name);
    if (it == pools_.end()) {
      if (error != nullptr) {
        *error = "unknown pool strategy '" + spec.name + "'";
      }
      return nullptr;
    }
    factory = it->second.factory;
  }
  return factory(spec, init, error);
}

std::vector<MarketKey> PolicyRegistry::CandidatesFor(
    const StrategySpec& map_spec, InstanceType nested,
    const std::vector<AvailabilityZone>& zones, std::string* error) const {
  size_t ladder_pools = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = pools_.find(map_spec.name);
    if (it == pools_.end()) {
      if (error != nullptr) {
        *error = "unknown pool strategy '" + map_spec.name + "'";
      }
      return {};
    }
    ladder_pools = it->second.ladder_pools;
  }
  return PoolCandidates(ladder_pools, nested, zones);
}

std::unique_ptr<BidStrategy> CreateBidStrategyOrDie(const StrategySpec& spec) {
  std::string error;
  auto strategy = PolicyRegistry::Instance().CreateBid(spec, &error);
  if (strategy == nullptr) {
    std::fprintf(stderr, "cannot instantiate bid strategy '%s': %s\n",
                 spec.ToString().c_str(), error.c_str());
    std::abort();
  }
  return strategy;
}

std::unique_ptr<PoolSelectionStrategy> CreatePoolStrategyOrDie(
    const StrategySpec& spec, const PoolStrategyInit& init) {
  std::string error;
  auto strategy = PolicyRegistry::Instance().CreatePool(spec, init, &error);
  if (strategy == nullptr) {
    std::fprintf(stderr, "cannot instantiate pool strategy '%s': %s\n",
                 spec.ToString().c_str(), error.c_str());
    std::abort();
  }
  return strategy;
}

}  // namespace spotcheck
