// ChoosePool determinism audit: pool selection must be
// a pure function of (seeded Rng stream, round-robin counter, market
// history) -- never of wall clock, worker id, or scheduling order. Two
// layers of protection:
//
//  1. A direct audit: two strategy instances built from the same seed must
//     emit byte-identical choice sequences for every one of the seven
//     built-in pool strategies, with per-draw price movement so the
//     weighted ones actually consult their Rng.
//  2. A grid regression: evaluation cells for all seven (plus the
//     index-tracking and adaptive families) must serialize bitwise-equal
//     at --jobs 1, 2, and 8. It would catch a round_robin_ counter shared
//     across workers or an Rng reseeded from global state.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/evaluation.h"
#include "src/core/parallel_evaluation.h"
#include "src/policy/policy_spec.h"
#include "src/policy/registry.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

// The paper's seven pool strategies: Table 2 plus greedy and stable.
constexpr const char* kAllKinds[] = {"1p-m",  "2p-ml",  "4p-ed", "4p-cost",
                                     "4p-st", "greedy", "stable"};

const AvailabilityZone kZone{0};

// A marketplace where every candidate pool has history that moves, so the
// cost/stability-weighted kinds exercise their weighted draws rather than
// collapsing to a constant choice.
void PopulateMarkets(MarketPlace& markets) {
  const InstanceType types[] = {InstanceType::kM3Medium, InstanceType::kM3Large,
                                InstanceType::kM3Xlarge,
                                InstanceType::kM32xlarge};
  int phase = 0;
  for (InstanceType type : types) {
    PriceTrace trace;
    const double od = OnDemandPrice(type);
    trace.Append(SimTime(), 0.12 * od);
    // Staggered spikes: distinct crossing counts per pool so the
    // stability-weighted kinds see asymmetric histories.
    for (int i = 0; i <= phase; ++i) {
      trace.Append(SimTime() + SimDuration::Hours(8.0 * i + 1), 1.5 * od);
      trace.Append(SimTime() + SimDuration::Hours(8.0 * i + 3),
                   (0.10 + 0.02 * i) * od);
    }
    markets.AddWithTrace(MarketKey{type, kZone}, std::move(trace));
    ++phase;
  }
}

std::string ChoiceSequence(const std::string& kind, uint64_t seed) {
  Simulator sim;
  MarketPlace markets(&sim);
  PopulateMarkets(markets);
  PoolStrategyInit init;
  init.nested_type = InstanceType::kM3Medium;
  init.zones = {kZone};
  init.rng = Rng(seed);
  const std::unique_ptr<PoolSelectionStrategy> policy =
      CreatePoolStrategyOrDie(StrategySpec{kind, {}}, init);
  const std::unique_ptr<BidStrategy> bid =
      CreateBidStrategyOrDie(StrategySpec{"on-demand", {}});
  std::ostringstream out;
  for (int i = 0; i < 64; ++i) {
    // Advance through the staggered spikes so later draws see different
    // price history than earlier ones.
    const SimTime now = SimTime() + SimDuration::Hours(0.5 * i);
    const MarketKey pool = policy->ChoosePool(MarketView(markets, now), *bid);
    out << InstanceTypeName(pool.type) << '/' << pool.zone.index << ';';
  }
  return out.str();
}

TEST(ChoosePoolDeterminismTest, SameSeedSameChoicesForEveryKind) {
  for (const char* kind : kAllKinds) {
    SCOPED_TRACE(kind);
    const std::string first = ChoiceSequence(kind, 99);
    EXPECT_EQ(first, ChoiceSequence(kind, 99))
        << "ChoosePool consumed state outside the seeded Rng stream";
    EXPECT_FALSE(first.empty());
  }
}

TEST(ChoosePoolDeterminismTest, DifferentSeedsDivergeSomewhere) {
  // The weighted kinds must actually use their Rng stream (a policy that
  // ignores its seed would trivially pass the identity check above).
  bool any_diverged = false;
  for (const char* kind : kAllKinds) {
    if (ChoiceSequence(kind, 99) != ChoiceSequence(kind, 7)) {
      any_diverged = true;
    }
  }
  EXPECT_TRUE(any_diverged);
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Every deterministic result field at full precision; trace-cache counters
// are scheduling-dependent and excluded (same contract as grid_jobs_sweep).
std::string Serialize(const std::vector<EvaluationResult>& results) {
  std::ostringstream out;
  for (const EvaluationResult& r : results) {
    out << Num(r.avg_cost_per_vm_hour) << ';' << Num(r.unavailability_pct)
        << ';' << Num(r.degradation_pct) << ';' << r.revocation_events << ';'
        << r.evacuations << ';' << r.repatriations << ';'
        << r.failed_migrations << ';' << r.stagings << ';'
        << r.stateless_respawns << ';' << r.num_backup_servers << ';'
        << Num(r.native_cost) << ';' << Num(r.backup_cost) << ';'
        << Num(r.vm_hours) << '\n';
  }
  return out.str();
}

EvaluationConfig BaseCell() {
  EvaluationConfig config;
  config.mechanism = MigrationMechanism::kSpotCheckLazyRestore;
  config.num_vms = 24;
  config.horizon = SimDuration::Days(30);
  config.seed = 5;
  return config;
}

TEST(ChoosePoolDeterminismTest, AllSevenKindsAreBitIdenticalAcrossJobs) {
  std::vector<EvaluationConfig> configs;
  for (const char* kind : kAllKinds) {
    EvaluationConfig config = BaseCell();
    config.policy_spec = ParsePolicySpecOrExit(std::string("map=") + kind);
    configs.push_back(config);
  }
  const std::string serial = Serialize(RunPolicyEvaluationGrid(configs, 1));
  EXPECT_EQ(serial, Serialize(RunPolicyEvaluationGrid(configs, 2)))
      << "--jobs=2 changed a result";
  EXPECT_EQ(serial, Serialize(RunPolicyEvaluationGrid(configs, 8)))
      << "--jobs=8 changed a result";
}

TEST(ChoosePoolDeterminismTest, StrategyLayerFamiliesAreBitIdenticalAcrossJobs) {
  // The new families route through the same grid, addressed by spec string:
  // the index tracker's deficit counters and the adaptive bidder's window
  // state live per-cell and must not bleed across workers.
  const char* kSpecs[] = {
      "bid=on-demand,map=index-track",
      "bid=adaptive:2,map=4p-ed",
      "bid=adaptive:2,map=index-track",
      "bid=multiple:1.5,map=4p-cost",
  };
  std::vector<EvaluationConfig> configs;
  for (const char* spec : kSpecs) {
    EvaluationConfig config = BaseCell();
    config.policy_spec = ParsePolicySpecOrExit(spec);
    config.proactive = true;
    configs.push_back(config);
  }
  const std::string serial = Serialize(RunPolicyEvaluationGrid(configs, 1));
  EXPECT_EQ(serial, Serialize(RunPolicyEvaluationGrid(configs, 2)))
      << "--jobs=2 changed a result";
  EXPECT_EQ(serial, Serialize(RunPolicyEvaluationGrid(configs, 8)))
      << "--jobs=8 changed a result";
}

}  // namespace
}  // namespace spotcheck
