// Ablation (Section 4.3): what absorbs a revocation storm?
//   * nothing: every evacuated VM waits for a fresh on-demand launch,
//   * hot spares: idle on-demand hosts standing by (cost while idle),
//   * staging servers: under-utilized hosts in other stable spot pools take
//     the VMs temporarily (no idle cost, double migrations),
// plus the stateless-service discount: replicas that need no backup server
// and no migration at all.

#include <cstdio>
#include <string>

#include "bench/grid_util.h"
#include "src/common/flags.h"
#include "src/policy/policy_spec.h"

using namespace spotcheck;

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  // Optional strategy-layer override: --policy="bid=multiple:2,map=4p-cost"
  // runs every variant under that spec instead of 4P-ED.
  const std::string policy = flags.GetString("policy", "map=4p-ed");
  flags.ExitIfUnknownFlags("--policy=SPEC");
  const std::string label = ParsePolicySpecOrExit(policy).Label();

  std::printf("=== Ablation: storm absorption & stateless mode (%s, six"
              " months) ===\n",
              label.c_str());
  std::printf("%-22s %12s %12s %10s %10s %10s %10s\n", "variant", "cost($/hr)",
              "unavail(%)", "evacs", "stagings", "respawns", "backups");

  struct Variant {
    const char* name;
    int hot_spares;
    bool staging;
    double stateless;
  };
  const Variant kVariants[] = {
      {"baseline", 0, false, 0.0},
      {"4 hot spares", 4, false, 0.0},
      {"staging servers", 0, true, 0.0},
      {"half stateless", 0, false, 0.5},
      {"all stateless", 0, false, 1.0},
  };
  for (const Variant& variant : kVariants) {
    EvaluationConfig config =
        GridConfig(policy, MigrationMechanism::kSpotCheckLazyRestore);
    config.hot_spares = variant.hot_spares;
    config.use_staging = variant.staging;
    config.stateless_fraction = variant.stateless;
    const EvaluationResult result = RunPolicyEvaluation(config);
    std::printf("%-22s %12.4f %12.5f %10lld %10lld %10lld %10d\n", variant.name,
                result.avg_cost_per_vm_hour, result.unavailability_pct,
                static_cast<long long>(result.evacuations),
                static_cast<long long>(result.stagings),
                static_cast<long long>(result.stateless_respawns),
                result.num_backup_servers);
  }
  std::printf("\nexpected: hot spares buy nothing here (on-demand launches"
              " already beat the warning) but cost idle dollars; staging\n"
              "absorbs storms at zero idle cost; stateless replicas shed the"
              " backup overhead and migrate for free\n");
  return 0;
}
