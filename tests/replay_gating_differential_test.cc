// End-to-end differential for skipped price points.
//
// A market replays only the points some listener can act on: NativeCloud
// and the MarketWatcher declare quiet bands, and the kernel skips every
// point inside all of them. Skipping is only sound if each declared band is
// exact -- a fire inside it must be a no-op for that listener. This suite
// runs each cell twice, wired as RunPolicyEvaluation wires it: once as
// shipped, and once with a band-less observer subscribed to every market,
// which makes every point fire. Both runs must agree on every outcome: the
// controller's event log row for row, the cost report, the downtime and
// degraded fractions, and the storm probabilities.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/chaos_config.h"
#include "src/chaos/chaos_engine.h"
#include "src/chaos/fault_plan.h"
#include "src/core/controller.h"
#include "src/policy/policy_spec.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

struct Cell {
  std::string map;
  std::string bid;
  bool proactive = false;
  bool predictive = false;
  int chaos_level = 0;
  uint64_t seed = 1;

  std::string Name() const {
    std::ostringstream out;
    out << "map=" << map << " bid=" << bid << (proactive ? " proactive" : "")
        << (predictive ? " predictive" : "") << " chaos=" << chaos_level
        << " seed=" << seed;
    return out.str();
  }
};

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

struct Outcome {
  std::string event_log;  // ControllerEventLog::ToCsv
  std::string numbers;    // cost report, fractions, storms, counters
  int64_t events_executed = 0;
  int64_t revocation_events = 0;
};

constexpr int kVms = 24;
constexpr SimDuration kHorizon = SimDuration::Days(30);
constexpr SimDuration kPlacementDelay = SimDuration::Days(2);

Outcome RunCell(const Cell& cell, bool hear_every_point) {
  Simulator sim;
  MarketPlace markets(&sim);

  NativeCloudConfig cloud_config;
  cloud_config.market_horizon = kHorizon + SimDuration::Days(1);
  cloud_config.market_seed = cell.seed;
  cloud_config.latency_seed = cell.seed ^ 0xfeed;
  NativeCloud cloud(&sim, &markets, cloud_config);

  ControllerConfig config;
  config.policy_spec =
      ParsePolicySpecOrExit("bid=" + cell.bid + ",map=" + cell.map);
  config.mechanism = MigrationMechanism::kSpotCheckLazyRestore;
  config.enable_proactive = cell.proactive;
  config.enable_predictive = cell.predictive;
  config.seed = cell.seed;
  SpotCheckController controller(&sim, &cloud, &markets, config);

  if (hear_every_point) {
    // The controller has materialized every candidate market. A listener
    // that declares no band is never quiet, so each of their points fires.
    for (SpotMarket* market : markets.All()) {
      market->Subscribe([](const SpotMarket&, double) {});
    }
  }

  std::unique_ptr<ChaosEngine> chaos;
  if (cell.chaos_level > 0) {
    ChaosConfig chaos_config = ChaosConfigForLevel(cell.chaos_level, cell.seed);
    chaos_config.num_zones = 1;
    const FaultPlan plan =
        FaultPlan::Compile(chaos_config, SimTime(), SimTime() + kHorizon);
    chaos = std::make_unique<ChaosEngine>(&sim, &cloud, &markets,
                                          &controller.mutable_backup_pool(),
                                          nullptr);
    chaos->Arm(plan);
  }

  std::vector<CustomerId> customers;
  for (int c = 0; c < 4; ++c) {
    customers.push_back(controller.RegisterCustomer());
  }
  sim.RunUntil(SimTime() + kPlacementDelay);
  for (int i = 0; i < kVms; ++i) {
    controller.RequestServer(customers[static_cast<size_t>(i) % 4],
                             /*stateless=*/i % 6 == 0);
  }
  sim.RunUntil(SimTime() + kHorizon);

  Outcome outcome;
  outcome.event_log = controller.event_log().ToCsv();
  const SpotCheckController::CostReport cost = controller.ComputeCostReport();
  const auto storms = controller.storms().Probabilities(
      kVms, SimDuration::Minutes(6), kHorizon);
  std::ostringstream numbers;
  numbers << Num(cost.native_cost) << ';' << Num(cost.backup_cost) << ';'
          << Num(cost.vm_hours) << ';' << Num(cost.avg_cost_per_vm_hour) << ';'
          << Num(controller.activity_log().MeanFraction(
                 ActivityKind::kDowntime, SimTime(), sim.Now()))
          << ';'
          << Num(controller.activity_log().MeanFraction(
                 ActivityKind::kDegraded, SimTime(), sim.Now()))
          << ';' << Num(storms.quarter) << ';' << Num(storms.half) << ';'
          << Num(storms.three_quarters) << ';' << Num(storms.all) << ';'
          << controller.revocation_events() << ';'
          << controller.repatriations() << ';'
          << controller.engine().evacuations();
  outcome.numbers = numbers.str();
  outcome.events_executed = sim.events_executed();
  outcome.revocation_events = controller.revocation_events();
  return outcome;
}

TEST(ReplayGatingDifferentialTest, SkippingQuietPointsChangesNoOutcome) {
  std::vector<Cell> cells;
  for (const char* map : {"1p-m", "4p-ed", "4p-st"}) {
    for (int bid = 0; bid < 3; ++bid) {
      for (const bool predictive : {false, true}) {
        for (const int chaos_level : {0, 2}) {
          for (uint64_t seed = 1; seed <= 3; ++seed) {
            Cell cell;
            cell.map = map;
            cell.bid = bid == 0 ? "on-demand" : bid == 1 ? "multiple:1.5"
                                                         : "adaptive:2";
            cell.proactive = bid == 1;
            cell.predictive = predictive;
            cell.chaos_level = chaos_level;
            cell.seed = seed;
            cells.push_back(cell);
          }
        }
      }
    }
  }
  ASSERT_EQ(cells.size(), 108u);

  int64_t gated_events = 0;
  int64_t full_events = 0;
  int64_t revocations = 0;
  for (const Cell& cell : cells) {
    SCOPED_TRACE(cell.Name());
    const Outcome gated = RunCell(cell, /*hear_every_point=*/false);
    const Outcome full = RunCell(cell, /*hear_every_point=*/true);
    ASSERT_EQ(gated.event_log, full.event_log);
    ASSERT_EQ(gated.numbers, full.numbers);
    if (cell.proactive && !cell.predictive) {
      // A fixed bid with proactive draining leaves the watcher a band too.
      EXPECT_LT(gated.events_executed, full.events_executed);
    }
    gated_events += gated.events_executed;
    full_events += full.events_executed;
    revocations += gated.revocation_events;
  }
  // The sides differ where they should: full replay fires every point (the
  // gated side skips points only in cells whose strategy and predictor
  // leave the MarketWatcher a band), and the matrix revokes hosts, so the
  // skipped points border real decisions.
  EXPECT_LT(gated_events, full_events);
  EXPECT_GT(revocations, 100);
}

}  // namespace
}  // namespace spotcheck
