// Microbenchmarks (google-benchmark) for the building blocks: event-queue
// throughput, price-trace generation and lookup, trace-catalog caching,
// migration planning, and end-to-end policy evaluations (single-cell and
// parallel grid). Results are also emitted as BENCH_micro.json (see
// emit_bench_json.h) so the perf trajectory is machine-diffable across PRs.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench/emit_bench_json.h"
#include "src/backup/backup_pool.h"
#include "src/cloud/native_cloud.h"
#include "src/core/controller_config.h"
#include "src/core/controller_context.h"
#include "src/core/evacuation.h"
#include "src/core/evaluation.h"
#include "src/core/event_log.h"
#include "src/core/host_pool.h"
#include "src/core/parallel_evaluation.h"
#include "src/core/placement.h"
#include "src/core/repatriation.h"
#include "src/core/storm_tracker.h"
#include "src/market/spot_price_process.h"
#include "src/market/trace_catalog.h"
#include "src/net/vpc.h"
#include "src/policy/policy_spec.h"
#include "src/policy/registry.h"
#include "src/sim/simulator.h"
#include "src/virt/migration_engine.h"
#include "src/virt/migration_models.h"
#include "src/virt/nested_vm.h"

namespace spotcheck {
namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int64_t events = state.range(0);
  for (auto _ : state) {
    Simulator sim;
    for (int64_t i = 0; i < events; ++i) {
      sim.ScheduleAt(SimTime::FromMicros(i * 7919 % 1'000'000), [] {});
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1'000)->Arg(100'000);

void BM_PriceTraceGeneration(benchmark::State& state) {
  const SimDuration horizon = SimDuration::Days(state.range(0));
  int zone = 0;
  for (auto _ : state) {
    const PriceTrace trace = GenerateMarketTrace(
        MarketKey{InstanceType::kM3Large, AvailabilityZone{zone++ % 18}}, horizon,
        42);
    benchmark::DoNotOptimize(trace.size());
  }
}
BENCHMARK(BM_PriceTraceGeneration)->Arg(30)->Arg(180);

void BM_PriceLookup(benchmark::State& state) {
  const PriceTrace trace = GenerateMarketTrace(
      MarketKey{InstanceType::kM3Large, AvailabilityZone{0}}, SimDuration::Days(180),
      42);
  int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace.PriceAt(SimTime::FromSeconds(static_cast<double>(t++ * 6841 % 15'000'000))));
  }
}
BENCHMARK(BM_PriceLookup);

// The simulator's access pattern: prices queried at (mostly) non-decreasing
// times through a PriceTrace::Cursor instead of per-call binary search.
void BM_PriceLookupMonotone(benchmark::State& state) {
  const PriceTrace trace = GenerateMarketTrace(
      MarketKey{InstanceType::kM3Large, AvailabilityZone{0}}, SimDuration::Days(180),
      42);
  const int64_t end_seconds = 15'000'000;
  PriceTrace::Cursor cursor(&trace);
  int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cursor.PriceAt(SimTime::FromSeconds(static_cast<double>(t))));
    t += 37;  // ~1000 queries per change point: the simulator's regime
    if (t >= end_seconds) {
      t = 0;  // wraps: one amortized re-seek per sweep
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PriceLookupMonotone);

void BM_CachedTraceLookup(benchmark::State& state) {
  TraceCatalog& catalog = TraceCatalog::Global();
  catalog.Clear();
  const MarketKey key{InstanceType::kM3Large, AvailabilityZone{7}};
  // Prime the entry; the loop then measures the steady-state hit path the
  // grid cells (and repeated figure benches) ride on: one map probe under
  // the catalog mutex, about three times per six-month cell.
  catalog.GetOrGenerate(key, SimDuration::Days(180), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        catalog.GetOrGenerate(key, SimDuration::Days(180), 42));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedTraceLookup);

void BM_PreCopyPlanning(benchmark::State& state) {
  PreCopyParams params;
  params.memory_mb = static_cast<double>(state.range(0));
  params.dirty_rate_mbps = 40.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PlanPreCopy(params));
  }
}
BENCHMARK(BM_PreCopyPlanning)->Arg(3072)->Arg(30720);

// The placement hot path: FindHostWithCapacity against a ~1k-host fleet
// spread over four markets, most hosts full, hot spares in the pool. The
// pre-refactor controller scanned the whole host map per lookup (and
// std::find-ed the hot-spare list per host); the pool's per-market capacity
// indexes confine the walk to the probed market. Probing the last market is
// the old code's worst case: every other market's hosts sat ahead of it in
// the scan.
void BM_PlacementFindHostAt1kHosts(benchmark::State& state) {
  Simulator sim;
  MarketPlace markets(&sim);
  NativeCloudConfig cloud_config;
  cloud_config.sample_latencies = false;
  NativeCloud cloud(&sim, &markets, cloud_config);
  ControllerConfig config;
  config.hot_spares = 8;
  ActivityLog activity_log;
  ControllerEventLog event_log;
  MigrationEngine engine(&sim, &activity_log);
  BackupPool backup_pool;
  RevocationStormTracker storms;
  VirtualPrivateCloud vpc;
  FleetTable<NestedVmTag, NestedVm> vms;
  ControllerContext ctx;
  ctx.sim = &sim;
  ctx.cloud = &cloud;
  ctx.markets = &markets;
  ctx.config = &config;
  ctx.activity_log = &activity_log;
  ctx.event_log = &event_log;
  ctx.engine = &engine;
  ctx.backup_pool = &backup_pool;
  ctx.storms = &storms;
  ctx.vpc = &vpc;
  ctx.vms = &vms;
  const std::unique_ptr<BidStrategy> bid =
      CreateBidStrategyOrDie(PolicySpec{}.bid);
  ctx.bid = bid.get();
  HostPoolManager pool(&ctx);
  ctx.pool = &pool;
  PlacementEngine placement(&ctx);
  ctx.placement = &placement;
  EvacuationCoordinator evacuation(&ctx);
  ctx.evacuation = &evacuation;
  MarketWatcher watcher(&ctx);
  ctx.market_watcher = &watcher;
  RepatriationScheduler repatriation(&ctx);
  ctx.repatriation = &repatriation;

  IdGenerator<NestedVmTag> vm_ids;
  IdGenerator<CustomerTag> customer_ids;
  const CustomerId customer = customer_ids.Next();
  auto new_vm = [&]() -> NestedVm& {
    const NestedVmId id = vm_ids.Next();
    return vms.Emplace(id, id, customer,
                       MakeVmSpec(config.nested_type, config.workload));
  };

  constexpr int kMarkets = 4;
  const int hosts_per_market = static_cast<int>(state.range(0)) / kMarkets;
  std::vector<MarketKey> keys;
  for (int zone = 0; zone < kMarkets; ++zone) {
    const MarketKey key{InstanceType::kM3Large, AvailabilityZone{zone}};
    PriceTrace trace;
    trace.Append(SimTime(), 0.008);
    markets.AddWithTrace(key, std::move(trace));
    keys.push_back(key);
  }
  {
    PriceTrace trace;  // the hot spares' fallback on-demand market
    trace.Append(SimTime(), 0.008);
    markets.AddWithTrace(ctx.FallbackOnDemandMarket(), std::move(trace));
  }
  pool.ReplenishHotSpares();
  for (const MarketKey& key : keys) {
    for (int i = 0; i < hosts_per_market; ++i) {
      NestedVm& vm = new_vm();
      pool.AcquireHost(key, /*is_spot=*/true,
                       Waiter{vm.id(), WaitIntent::kInitialPlacement});
    }
  }
  sim.RunUntil(sim.Now() + SimDuration::Seconds(3600));
  // Each m3.large holds two nested VMs and came up with one; fill every host
  // but the last two per market so the lookup has to walk a long prefix.
  for (const MarketKey& key : keys) {
    const std::vector<InstanceId> spot_hosts = pool.SpotHostsIn(key);
    for (size_t i = 0; i + 2 < spot_hosts.size(); ++i) {
      HostVm* host = pool.GetMutableHost(spot_hosts[i]);
      NestedVm& filler = new_vm();
      if (host != nullptr && host->AddVm(filler.id(), filler.spec())) {
        filler.set_host(host->instance());
        filler.set_state(NestedVmState::kRunning);
      }
    }
  }

  const NestedVmSpec spec = MakeVmSpec(config.nested_type, config.workload);
  const MarketKey probe = keys[kMarkets - 1];
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.FindHostWithCapacity(probe, spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlacementFindHostAt1kHosts)->Arg(1'000);

void BM_SixMonthPolicyEvaluation(benchmark::State& state) {
  for (auto _ : state) {
    EvaluationConfig config;
    config.policy_spec = ParsePolicySpecOrExit("map=4p-ed");
    config.mechanism = MigrationMechanism::kSpotCheckLazyRestore;
    config.num_vms = 40;
    config.horizon = SimDuration::Days(180);
    config.seed = 2;
    benchmark::DoNotOptimize(RunPolicyEvaluation(config));
  }
}
BENCHMARK(BM_SixMonthPolicyEvaluation)->Unit(benchmark::kMillisecond);

// A small policy x mechanism grid (4 cells, one simulated month each) on the
// parallel runner. Arg = worker count; compare Arg(1) vs Arg(4) to see the
// parallel scaling on this machine (cells share cached traces either way).
void BM_ParallelEvaluationGrid(benchmark::State& state) {
  std::vector<EvaluationConfig> configs;
  for (const char* policy : {"map=1p-m", "map=4p-ed"}) {
    for (MigrationMechanism mechanism :
         {MigrationMechanism::kSpotCheckFullRestore,
          MigrationMechanism::kSpotCheckLazyRestore}) {
      EvaluationConfig config;
      config.policy_spec = ParsePolicySpecOrExit(policy);
      config.mechanism = mechanism;
      config.num_vms = 16;
      config.horizon = SimDuration::Days(30);
      config.seed = 2;
      configs.push_back(config);
    }
  }
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPolicyEvaluationGrid(configs, jobs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(configs.size()));
}
BENCHMARK(BM_ParallelEvaluationGrid)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();  // workers burn CPU off the main thread; report wall clock

}  // namespace
}  // namespace spotcheck

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  spotcheck::JsonEmitReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
