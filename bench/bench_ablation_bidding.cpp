// Ablation (Section 4.3): bidding policies. Bidding k times the on-demand
// price lowers the revocation frequency at a higher worst-case cost, and
// (for k > 1) enables proactive live migration -- evacuating when the price
// crosses the on-demand level but is still below the bid.

#include <cstdio>
#include <string>

#include "bench/grid_util.h"
#include "src/common/flags.h"
#include "src/policy/policy_spec.h"

using namespace spotcheck;

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  // Optional strategy-layer row: --policy="bid=adaptive:2,map=4p-ed" appends
  // one run of the given spec (registry-validated; bad specs exit 2).
  const std::string policy_flag = flags.GetString("policy", "");
  flags.ExitIfUnknownFlags("--policy=SPEC");

  std::printf("=== Ablation: bidding policy (1P-M over the four m3 pools) ===\n");
  std::printf("%-22s %-10s %10s %10s %12s %12s %12s\n", "bid", "proactive",
              "revocs", "proact", "cost($/hr)", "unavail(%)", "degr(%)");

  // Spike prices start at ~2x the on-demand price (the Fig. 6(a) knee), so
  // bids between 1x and 2x change nothing -- exactly the paper's point that
  // bidding the on-demand price approximates the optimum. Higher bids ride
  // out the cheaper spikes.
  const struct {
    std::string bid;
    bool proactive;
  } kRows[] = {{"bid=on-demand", false},  {"bid=multiple:2", false},
               {"bid=multiple:3", false}, {"bid=multiple:5", false},
               {"bid=multiple:3", true},  {"bid=multiple:5", true}};
  for (const auto& row : kRows) {
    EvaluationConfig config = GridConfig(
        row.bid + ",map=4p-ed", MigrationMechanism::kSpotCheckLazyRestore);
    config.proactive = row.proactive;
    const EvaluationResult result = RunPolicyEvaluation(config);
    std::printf("%-22s %-10s %10lld %10lld %12.4f %12.5f %12.4f\n",
                row.bid.c_str(), row.proactive ? "yes" : "no",
                static_cast<long long>(result.revocation_events),
                static_cast<long long>(result.repatriations),
                result.avg_cost_per_vm_hour, result.unavailability_pct,
                result.degradation_pct);
  }
  if (!policy_flag.empty()) {
    EvaluationConfig config =
        GridConfig(policy_flag, MigrationMechanism::kSpotCheckLazyRestore);
    config.proactive = true;  // no-op for bids without proactive support
    const EvaluationResult result = RunPolicyEvaluation(config);
    std::printf("%-22s %-10s %10lld %10lld %12.4f %12.5f %12.4f\n",
                config.policy_spec->ToString().c_str(), "yes",
                static_cast<long long>(result.revocation_events),
                static_cast<long long>(result.repatriations),
                result.avg_cost_per_vm_hour, result.unavailability_pct,
                result.degradation_pct);
  }
  std::printf("\nexpected: higher bids cut revocations (the availability-bid"
              " curve flattens past the on-demand price, Fig. 6(a));\n"
              "proactive migration converts the remaining evacuations into"
              " zero-downtime live migrations\n");
  return 0;
}
