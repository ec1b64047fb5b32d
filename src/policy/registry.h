// String-keyed registry of bidding and pool-selection strategies.
//
// Benches, the CLI, and the evaluation harness refer to strategies by spec
// string ("bid=multiple:1.5,map=4p-cost"); the registry turns validated
// specs into strategy instances. Built-in families (the paper's Table-2
// policies plus the adaptive-bid and index-tracking families) register
// themselves in the singleton's constructor; tests can register additional
// strategies at runtime.
//
// The singleton is shared across grid workers, so lookups are mutex-guarded;
// created strategies are per-cell and unsynchronized.

#ifndef SRC_POLICY_REGISTRY_H_
#define SRC_POLICY_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/policy/policy_spec.h"
#include "src/policy/strategy.h"

namespace spotcheck {

// Everything a pool strategy factory needs besides its spec: the nested VM
// type whose family ladder defines the candidate pools, the zones the ladder
// is replicated into, and the seeded Rng stream for weighted draws.
struct PoolStrategyInit {
  InstanceType nested_type = InstanceType::kM3Medium;
  std::vector<AvailabilityZone> zones{AvailabilityZone{0}};
  Rng rng{0};
};

// Host-type pools that can carry a `nested` VM: the nested type itself plus
// progressively larger same-family types (slicing targets), in catalog
// (size) order, clamped to `pools` entries and replicated per zone. For
// m3.medium with pools=4 this is exactly Table 2's
// {m3.medium, m3.large, m3.xlarge, m3.2xlarge} ladder.
std::vector<MarketKey> PoolCandidates(size_t pools, InstanceType nested,
                                      const std::vector<AvailabilityZone>& zones);

class PolicyRegistry {
 public:
  using BidFactory = std::function<std::unique_ptr<BidStrategy>(
      const StrategySpec&, std::string* error)>;
  using PoolFactory = std::function<std::unique_ptr<PoolSelectionStrategy>(
      const StrategySpec&, const PoolStrategyInit&, std::string* error)>;

  static PolicyRegistry& Instance();

  void RegisterBid(const std::string& name, BidFactory factory);
  // `ladder_pools` is how many family-ladder types the strategy spans per
  // zone (1 for 1p-m, 2 for 2p-ml, 4 for the four-pool strategies); it
  // drives CandidatesFor so trace prewarm and market materialization agree
  // with the strategy's own candidate list.
  void RegisterPool(const std::string& name, size_t ladder_pools,
                    PoolFactory factory);

  bool HasBid(const std::string& name) const;
  bool HasPool(const std::string& name) const;
  std::vector<std::string> BidNames() const;
  std::vector<std::string> PoolNames() const;

  // Instantiate; null + `error` on unknown name or bad parameters.
  std::unique_ptr<BidStrategy> CreateBid(const StrategySpec& spec,
                                         std::string* error) const;
  std::unique_ptr<PoolSelectionStrategy> CreatePool(const StrategySpec& spec,
                                                    const PoolStrategyInit& init,
                                                    std::string* error) const;

  // The candidate markets CreatePool(spec, ...) would select from, without
  // instantiating the strategy: what the trace prewarm and the controller's
  // market materialization enumerate. Empty + `error` on unknown name.
  std::vector<MarketKey> CandidatesFor(const StrategySpec& map_spec,
                                       InstanceType nested,
                                       const std::vector<AvailabilityZone>& zones,
                                       std::string* error) const;

 private:
  PolicyRegistry();  // registers the built-in families

  struct PoolEntry {
    size_t ladder_pools = 1;
    PoolFactory factory;
  };

  mutable std::mutex mu_;
  std::map<std::string, BidFactory> bids_;
  std::map<std::string, PoolEntry> pools_;
};

// Registry instantiation for specs that are valid by construction: parsed
// by PolicySpec::Parse or written in code. Prints the error and aborts on
// failure, since a bad spec here is a programming error, not user input.
std::unique_ptr<BidStrategy> CreateBidStrategyOrDie(const StrategySpec& spec);
std::unique_ptr<PoolSelectionStrategy> CreatePoolStrategyOrDie(
    const StrategySpec& spec, const PoolStrategyInit& init);

}  // namespace spotcheck

#endif  // SRC_POLICY_REGISTRY_H_
