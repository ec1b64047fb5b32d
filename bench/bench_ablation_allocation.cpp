// Ablation (Section 4.2): allocation strategy. Greedy cheapest-first
// exploits the slicing arbitrage (a large host is often cheaper per nested
// slot than a small host); stability-first instead picks the market with the
// fewest past revocations. Compared against the evaluated pool policies.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/grid_util.h"
#include "src/common/flags.h"
#include "src/policy/policy_spec.h"

using namespace spotcheck;

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  // Optional strategy-layer row: --policy="bid=on-demand,map=index-track"
  // appends one run of the given spec (registry-validated; bad specs exit 2).
  const std::string policy_flag = flags.GetString("policy", "");
  flags.ExitIfUnknownFlags("--policy=SPEC");

  std::printf("=== Ablation: allocation strategy (40 VMs, six months) ===\n");
  std::printf("%-10s %12s %12s %12s %10s %10s\n", "policy", "cost($/hr)",
              "unavail(%)", "degr(%)", "revocs", "backups");

  std::vector<std::string> policies = {"map=1p-m",    "map=4p-ed",
                                       "map=4p-cost", "map=4p-st",
                                       "map=greedy",  "map=stable"};
  if (!policy_flag.empty()) {
    policies.push_back(policy_flag);
  }
  for (const std::string& policy : policies) {
    const EvaluationConfig config =
        GridConfig(policy, MigrationMechanism::kSpotCheckLazyRestore);
    const EvaluationResult result = RunPolicyEvaluation(config);
    std::printf("%-10s %12.4f %12.5f %12.4f %10lld %10d\n",
                config.policy_spec->Label().c_str(),
                result.avg_cost_per_vm_hour, result.unavailability_pct,
                result.degradation_pct,
                static_cast<long long>(result.revocation_events),
                result.num_backup_servers);
  }
  std::printf("\nexpected: greedy tracks the cheapest per-slot market;"
              " stability-first concentrates on the calm m3.medium market\n"
              "(lowest migrations), echoing 1P-M\n");
  return 0;
}
