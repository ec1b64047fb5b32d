// Ablation (Section 3.2): predictive migration. A price-tracking predictor
// drains pools with live migrations when a spike looks imminent, avoiding
// the bounded-time downtime for every correctly predicted revocation. First
// the predictor itself is scored offline per market, then the end-to-end
// effect is measured.

#include <cstdio>
#include <string>

#include "bench/grid_util.h"
#include "src/market/revocation_predictor.h"
#include "src/market/spot_price_process.h"
#include "src/common/flags.h"
#include "src/policy/policy_spec.h"

using namespace spotcheck;

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  // Optional strategy-layer override for the end-to-end comparison:
  // --policy="bid=on-demand,map=index-track" runs both the reactive and
  // predictive variants under that spec instead of 4P-ED.
  const std::string policy = flags.GetString("policy", "map=4p-ed");
  flags.ExitIfUnknownFlags("--policy=SPEC");
  const std::string label = ParsePolicySpecOrExit(policy).Label();

  std::printf("=== Predictor quality per market (six months, bid = on-demand)"
              " ===\n");
  std::printf("%-12s %10s %10s %10s %14s\n", "market", "crossings", "predicted",
              "recall", "alarm-up time");
  for (InstanceType type : {InstanceType::kM3Medium, InstanceType::kM3Large,
                            InstanceType::kM3Xlarge, InstanceType::kM32xlarge}) {
    const PriceTrace trace = GenerateMarketTrace(
        MarketKey{type, AvailabilityZone{0}}, SimDuration::Days(180), 2);
    const double od = OnDemandPrice(type);
    const PredictorScore score = EvaluatePredictor(
        PredictorConfig{}, trace, od, od, SimTime(), SimTime() + SimDuration::Days(180));
    std::printf("%-12s %10d %10d %9.0f%% %13.2f%%\n",
                std::string(InstanceTypeName(type)).c_str(), score.crossings,
                score.predicted, 100.0 * score.recall,
                100.0 * score.signal_up_fraction);
  }

  std::printf("\n=== End-to-end effect (%s, SpotCheck lazy restore) ===\n",
              label.c_str());
  std::printf("%-12s %10s %10s %12s %12s %12s\n", "variant", "revocs", "drains",
              "cost($/hr)", "unavail(%)", "degr(%)");
  for (bool predictive : {false, true}) {
    EvaluationConfig config =
        GridConfig(policy, MigrationMechanism::kSpotCheckLazyRestore);
    EvaluationResult result;
    if (predictive) {
      // Run through the controller directly to flip the predictive knob.
      Simulator sim;
      MarketPlace markets(&sim);
      NativeCloudConfig cloud_config;
      cloud_config.market_horizon = config.horizon + SimDuration::Days(1);
      cloud_config.market_seed = config.seed;
      cloud_config.latency_seed = config.seed ^ 0xfeed;
      NativeCloud cloud(&sim, &markets, cloud_config);
      ControllerConfig controller_config;
      controller_config.policy_spec = config.policy_spec;
      controller_config.mechanism = config.mechanism;
      controller_config.enable_predictive = true;
      controller_config.seed = config.seed;
      SpotCheckController controller(&sim, &cloud, &markets, controller_config);
      const CustomerId customer = controller.RegisterCustomer("pred");
      sim.RunUntil(SimTime() + SimDuration::Days(7));
      for (int i = 0; i < config.num_vms; ++i) {
        controller.RequestServer(customer);
      }
      sim.RunUntil(SimTime() + config.horizon);
      result.revocation_events = controller.revocation_events();
      result.repatriations = controller.proactive_migrations();
      result.avg_cost_per_vm_hour =
          controller.ComputeCostReport().avg_cost_per_vm_hour;
      result.unavailability_pct = controller.activity_log().MeanFraction(
                                      ActivityKind::kDowntime, SimTime(), sim.Now()) *
                                  100.0;
      result.degradation_pct = controller.activity_log().MeanFraction(
                                   ActivityKind::kDegraded, SimTime(), sim.Now()) *
                               100.0;
    } else {
      result = RunPolicyEvaluation(config);
      result.repatriations = 0;  // repurposed column: proactive drains
    }
    std::printf("%-12s %10lld %10lld %12.4f %12.5f %12.4f\n",
                predictive ? "predictive" : "reactive",
                static_cast<long long>(result.revocation_events),
                static_cast<long long>(result.repatriations),
                result.avg_cost_per_vm_hour, result.unavailability_pct,
                result.degradation_pct);
  }
  std::printf("\nexpected: about half the spikes are announced by an escalation"
              " ramp; predicting them converts their evacuations into\n"
              "zero-downtime live migrations, cutting revocation warnings and"
              " unavailability roughly in half at near-equal cost\n");
  return 0;
}
