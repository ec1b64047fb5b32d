// The repository benchmark's workload binary: runs one workload against the
// public spotcheck API for a wall-clock budget and prints its raw samples --
// timings, simulated outcomes, output checks and layer instruments -- as one
// JSON document. perfbench/run.py builds this binary, runs it and turns the
// samples into the benchmark's metrics; README.md in this directory says
// what each workload is for.
//
// Usage:
//   perfbench --workload=paper_grid|fleet_storm|fleet_churn --seed=N
//                    --seconds=S --trace=0|1 --out=PATH [--spans-out=PATH]
//
// --trace=0 repeats the workload with the library's default instruments
// until S seconds have passed. --trace=1 alternates untraced and traced
// repetitions. A traced repetition attaches an EventCostProfiler, wraps
// every call this binary makes into a layer's public function in a span, and
// reports per-layer numbers. Its untraced twin gives the baseline for the
// tracing overhead and for the instruments-on/off outcome comparison.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/memory_probe.h"
#include "src/common/rng.h"
#include "src/core/controller.h"
#include "src/core/evaluation.h"
#include "src/core/parallel_evaluation.h"
#include "src/market/trace_catalog.h"
#include "src/obs/grid_summary.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/policy/registry.h"
#include "src/sim/simulator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace spotcheck {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around its own calls into the library. They
// nest strictly (one thread, RAII scopes), so a span's self time is its
// duration minus the durations of the spans directly inside it. Kept in
// memory and written out once, when the run ends.

class SpanLog {
 public:
  struct Span {
    uint32_t parent = 0;  // 1-based index of the enclosing span; 0 = root
    const char* layer = "";
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t child_ns = 0;  // covered by directly nested spans

    int64_t self_ns() const { return end_ns - start_ns - child_ns; }
  };

  // Null log = untraced: the scope reads no clock at all.
  class Scope {
   public:
    Scope(SpanLog* log, const char* layer, const char* name) : log_(log) {
      if (log_ != nullptr) {
        index_ = log_->Open(layer, name);
      }
    }
    ~Scope() {
      if (log_ != nullptr) {
        log_->Close(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    uint32_t index_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  // One "id,parent,layer,name,start_ns,end_ns,self_ns" row per span.
  bool WriteCsv(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::fprintf(out, "id,parent,layer,name,start_ns,end_ns,self_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu,%u,%s,%s,%lld,%lld,%lld\n", i + 1, s.parent,
                   s.layer, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.self_ns()));
    }
    return std::fclose(out) == 0;
  }

 private:
  uint32_t Open(const char* layer, const char* name) {
    Span span;
    span.parent = open_.empty() ? 0 : open_.back() + 1;
    span.layer = layer;
    span.name = name;
    spans_.push_back(span);
    const auto index = static_cast<uint32_t>(spans_.size() - 1);
    open_.push_back(index);
    spans_[index].start_ns = NowNs();
    return index;
  }
  void Close(uint32_t index) {
    const int64_t end = NowNs();
    Span& span = spans_[index];
    span.end_ns = end;
    open_.pop_back();
    if (span.parent != 0) {
      spans_[span.parent - 1].child_ns += end - span.start_ns;
    }
  }

  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

// The layers self time is reported for (fixed, so every traced run reports
// the same metric names).
constexpr const char* kSpanLayers[] = {"sim",       "market", "cloud", "core",
                                       "core.api",  "core.grid", "virt"};

// ---------------------------------------------------------------------------
// Output checks: counted here, failures named in the output.

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok && failures_.size() < 50) {
      failures_.push_back(what);
    }
    failed_ += ok ? 0 : 1;
  }
  void Write(JsonWriter& json) const {
    json.BeginObject();
    json.Key("attempted");
    json.Int(attempted_);
    json.Key("failed");
    json.Int(failed_);
    json.Key("failures");
    json.BeginArray();
    for (const std::string& f : failures_) {
      json.String(f);
    }
    json.EndArray();
    json.EndObject();
  }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// The simulated statistics a speed-only change must leave identical. run.py
// hashes them into the workload's outcome digest.

struct Outcome {
  double cost_per_vm_hour = 0.0;
  double unavailability_pct = 0.0;
  double degradation_pct = 0.0;
  double vm_hours = 0.0;
  int64_t revocations = 0;
  int64_t evacuations = 0;
  int64_t repatriations = 0;
  int64_t backup_servers = 0;

  bool SameAs(const Outcome& o) const {
    return std::bit_cast<uint64_t>(cost_per_vm_hour) ==
               std::bit_cast<uint64_t>(o.cost_per_vm_hour) &&
           std::bit_cast<uint64_t>(unavailability_pct) ==
               std::bit_cast<uint64_t>(o.unavailability_pct) &&
           std::bit_cast<uint64_t>(degradation_pct) ==
               std::bit_cast<uint64_t>(o.degradation_pct) &&
           std::bit_cast<uint64_t>(vm_hours) ==
               std::bit_cast<uint64_t>(o.vm_hours) &&
           revocations == o.revocations && evacuations == o.evacuations &&
           repatriations == o.repatriations &&
           backup_servers == o.backup_servers;
  }
  void Write(JsonWriter& json) const {
    json.BeginObject();
    json.Key("cost_per_vm_hour");
    json.Double(cost_per_vm_hour);
    json.Key("unavailability_pct");
    json.Double(unavailability_pct);
    json.Key("degradation_pct");
    json.Double(degradation_pct);
    json.Key("vm_hours");
    json.Double(vm_hours);
    json.Key("revocations");
    json.Int(revocations);
    json.Key("evacuations");
    json.Int(evacuations);
    json.Key("repatriations");
    json.Int(repatriations);
    json.Key("backup_servers");
    json.Int(backup_servers);
    json.EndObject();
  }
};

Outcome OutcomeOf(const EvaluationResult& r) {
  return Outcome{r.avg_cost_per_vm_hour, r.unavailability_pct,
                 r.degradation_pct,      r.vm_hours,
                 r.revocation_events,    r.evacuations,
                 r.repatriations,        r.num_backup_servers};
}

// Finite and in range: the sanity bar every simulated outcome must clear.
void CheckOutcome(Checks& checks, const Outcome& o, const std::string& where) {
  checks.Expect(std::isfinite(o.cost_per_vm_hour) && o.cost_per_vm_hour > 0.0,
                where + ": cost per VM-hour not finite and positive");
  checks.Expect(o.unavailability_pct >= 0.0 && o.unavailability_pct <= 100.0,
                where + ": unavailability outside [0, 100]");
  checks.Expect(o.degradation_pct >= 0.0 && o.degradation_pct <= 100.0,
                where + ": degradation outside [0, 100]");
  checks.Expect(std::isfinite(o.vm_hours) && o.vm_hours > 0.0,
                where + ": VM-hours not finite and positive");
  checks.Expect(o.revocations >= 0 && o.evacuations >= 0 &&
                    o.repatriations >= 0 && o.backup_servers >= 0,
                where + ": negative event count");
}

// ---------------------------------------------------------------------------
// One repetition of a workload.

struct Rep {
  bool traced = false;
  double setup_s = 0.0;      // the set-up sample taken just before it
  double reference_s = 0.0;  // mean of the reference passes around it
  double wall_s = 0.0;       // the timed window
  double vm_hours = 0.0;
  int64_t cells = 0;
  int64_t vms = 0;
  double bytes_per_vm = 0.0;
  std::vector<double> cell_ms;
  std::vector<Outcome> outcome;
  // Traced repetitions only.
  std::map<std::string, double> layers;
  std::vector<double> request_us;
  std::vector<double> release_us;
};

// CPUs this process may run on (what nproc prints), which can be fewer than
// std::thread::hardware_concurrency() under an affinity mask.
int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Bytes the heap holds for live allocations, over every malloc arena plus
// mmapped blocks. Unlike RSS it does not move with allocator slack or with
// which thread's arena a grid cell happened to use, so a repetition's
// growth reads the same on every run.
int64_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

int64_t CounterValue(const MetricsRegistry& metrics, const char* name) {
  const MetricCounter* c = metrics.FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

// Adds the counters the per-layer metrics read from one registry to `sums`
// (grid cells sum).
void SumCounters(const MetricsRegistry& metrics,
                 std::map<std::string, int64_t>& sums) {
  for (const char* name :
       {"sim.events_fired", "market.price_changes_fired", "cloud.launches",
        "cloud.terminations", "cloud.revocation_warnings",
        "cloud.launch_failures", "controller.revocation_events",
        "controller.backup_restores", "controller.vms_lost",
        "controller.repatriations", "virt.evacuations", "virt.live_migrations",
        "virt.failed_migrations", "virt.restore_bytes_mb",
        "backup.assignments", "backup.releases",
        "backup.servers_provisioned"}) {
    sums[name] += CounterValue(metrics, name);
  }
}

double CategoryMs(const EventCostProfiler& p, ProfileCategory c) {
  const EventCostProfiler::CategoryStats& s = p.stats(c);
  if (s.timed == 0) {
    return 0.0;
  }
  const double mean_ns =
      static_cast<double>(s.total_ns) / static_cast<double>(s.timed);
  return mean_ns * static_cast<double>(s.count) * 1e-6;
}

// Kernel time the profiler attributes: the dispatch kinds plus the queue
// maintenance that runs outside dispatch. Pool and backup categories run
// inside dispatch (or inside the benchmark's calls) and are not added again.
double KernelMs(const EventCostProfiler& p) {
  return CategoryMs(p, ProfileCategory::kDispatchStream) +
         CategoryMs(p, ProfileCategory::kDispatchCallback) +
         CategoryMs(p, ProfileCategory::kDispatchPeriodic) +
         CategoryMs(p, ProfileCategory::kCalendarWrap) +
         CategoryMs(p, ProfileCategory::kLazyBucketSort);
}

// The per-layer numbers both the profiler and the metrics registry can give.
void AddInstrumentLayers(const EventCostProfiler& p,
                         const std::map<std::string, int64_t>& counters,
                         std::map<std::string, double>& layers) {
  const auto counter = [&counters](const char* name) {
    const auto it = counters.find(name);
    return it != counters.end() ? static_cast<double>(it->second) : 0.0;
  };
  const auto stat = [&p](ProfileStat s) {
    return static_cast<double>(p.stat(s));
  };
  layers["sim.events"] = counter("sim.events_fired");
  layers["sim.dispatch_callback_ms"] =
      CategoryMs(p, ProfileCategory::kDispatchCallback);
  layers["sim.dispatch_stream_ms"] =
      CategoryMs(p, ProfileCategory::kDispatchStream);
  layers["sim.dispatch_periodic_ms"] =
      CategoryMs(p, ProfileCategory::kDispatchPeriodic);
  layers["sim.lazy_bucket_sort_ms"] =
      CategoryMs(p, ProfileCategory::kLazyBucketSort);
  layers["sim.lazy_sorted_events"] = stat(ProfileStat::kLazySortedEvents);
  layers["sim.bucket_degrades"] = stat(ProfileStat::kBucketDegrades);
  layers["sim.overflow_spills"] = stat(ProfileStat::kOverflowSpills);
  layers["sim.calendar_wrap_ms"] =
      CategoryMs(p, ProfileCategory::kCalendarWrap);
  layers["market.price_changes_fired"] = counter("market.price_changes_fired");
  layers["cloud.launches"] = counter("cloud.launches");
  layers["cloud.terminations"] = counter("cloud.terminations");
  layers["cloud.revocation_warnings"] = counter("cloud.revocation_warnings");
  layers["cloud.launch_failures"] = counter("cloud.launch_failures");
  layers["core.pool.capacity_index_ms"] =
      CategoryMs(p, ProfileCategory::kPoolCapacityIndex);
  layers["core.pool.placeable_index_ms"] =
      CategoryMs(p, ProfileCategory::kPoolPlaceableIndex);
  layers["core.pool.pending_join_ms"] =
      CategoryMs(p, ProfileCategory::kPoolPendingJoin);
  layers["core.pool.index_inserts"] = stat(ProfileStat::kIndexInserts);
  layers["core.pool.index_erases"] = stat(ProfileStat::kIndexErases);
  layers["core.revocation_events"] = counter("controller.revocation_events");
  layers["core.backup_restores"] = counter("controller.backup_restores");
  layers["core.vms_lost"] = counter("controller.vms_lost");
  layers["core.repatriations"] = counter("controller.repatriations");
  layers["virt.evacuations"] = counter("virt.evacuations");
  layers["virt.live_migrations"] = counter("virt.live_migrations");
  layers["virt.failed_migrations"] = counter("virt.failed_migrations");
  layers["virt.restore_bytes_mb"] = counter("virt.restore_bytes_mb");
  layers["backup.assign_ms"] = CategoryMs(p, ProfileCategory::kBackupAssign);
  layers["backup.assignments"] = counter("backup.assignments");
  layers["backup.releases"] = counter("backup.releases");
  layers["backup.probes"] = stat(ProfileStat::kBackupProbes);
  const double assignments = counter("backup.assignments");
  layers["backup.probes_per_assignment"] =
      assignments > 0.0 ? stat(ProfileStat::kBackupProbes) / assignments : 0.0;
  layers["backup.servers"] = counter("backup.servers_provisioned");
}

// Self time per layer over spans [begin, end) of `log`, plus the time spent
// in ComputeCostReport.
void AddSpanLayers(const SpanLog& log, size_t begin, size_t end,
                   std::map<std::string, double>& layers) {
  std::map<std::string, int64_t> self_ns;
  for (const char* layer : kSpanLayers) {
    self_ns[layer] = 0;
  }
  int64_t cost_report_ns = 0;
  for (size_t i = begin; i < end; ++i) {
    const SpanLog::Span& s = log.spans()[i];
    self_ns[s.layer] += s.self_ns();
    if (std::string_view(s.name) == "ComputeCostReport") {
      cost_report_ns += s.end_ns - s.start_ns;
    }
  }
  for (const auto& [layer, ns] : self_ns) {
    layers["self_ms." + layer] = Millis(ns);
  }
  layers["cloud.cost_report_ms"] = Millis(cost_report_ns);
}

// Durations, in microseconds, of spans [begin, end) named `name`.
std::vector<double> CallMicros(const SpanLog& log, size_t begin, size_t end,
                               std::string_view name) {
  std::vector<double> out;
  for (size_t i = begin; i < end; ++i) {
    const SpanLog::Span& s = log.spans()[i];
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

// The layer numbers that only apply to the parallel grid, zero elsewhere so
// every traced run reports the same names.
void AddGridLayers(const GridContentionReport* contention, int64_t report_ns,
                   std::map<std::string, double>& layers) {
  double busy_fraction = 0.0;
  double imbalance = 0.0;
  double prewarm_ms = 0.0;
  if (contention != nullptr && !contention->workers.empty()) {
    int64_t busy = 0;
    int64_t lo = contention->workers.front().busy_ns;
    int64_t hi = lo;
    for (const GridWorkerProfile& w : contention->workers) {
      busy += w.busy_ns;
      lo = std::min(lo, w.busy_ns);
      hi = std::max(hi, w.busy_ns);
    }
    const double capacity = static_cast<double>(contention->workers.size()) *
                            static_cast<double>(contention->total_ns);
    busy_fraction = capacity > 0.0 ? static_cast<double>(busy) / capacity : 0.0;
    imbalance =
        lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0;
    prewarm_ms = Millis(contention->prewarm_ns);
  }
  layers["core.grid.busy_fraction"] = busy_fraction;
  layers["core.grid.imbalance"] = imbalance;
  layers["core.grid.prewarm_ms"] = prewarm_ms;
  layers["obs.report_build_ms"] = Millis(report_ns);
}

// How much of the timed window the churn phase takes, and how much of the
// churn phase the ReleaseServer calls take: together they say how far a
// slower release path moves each end-to-end metric. Zero outside fleet_churn.
void AddChurnLayers(int64_t wall_ns, int64_t churn_ns,
                    const std::vector<double>& release_us,
                    std::map<std::string, double>& layers) {
  double release_us_total = 0.0;
  for (double us : release_us) {
    release_us_total += us;
  }
  layers["churn.phase_share"] =
      churn_ns > 0 ? static_cast<double>(churn_ns) / static_cast<double>(wall_ns)
                   : 0.0;
  layers["churn.release_share"] =
      churn_ns > 0 ? release_us_total * 1e3 / static_cast<double>(churn_ns)
                   : 0.0;
}

// ---------------------------------------------------------------------------
// Set-up time. One cold set-up of a fleet workload takes a millisecond or
// two, too little to time alone, so a sample is the mean over as many
// back-to-back set-ups as fit in kSetupSampleNs. A run takes one sample
// before each repetition, spreading them over the run as the repetitions
// are; run.py reports their mean.

constexpr int64_t kSetupSampleNs = 50'000'000;

// `set_up` makes one cold set-up and returns the nanoseconds it took (its
// tear-down not included).
double SetUpSeconds(const std::function<int64_t()>& set_up) {
  int64_t setup_ns = 0;
  int64_t count = 0;
  const int64_t started = NowNs();
  do {
    setup_ns += set_up();
    ++count;
  } while (NowNs() - started < kSetupSampleNs);
  return Seconds(setup_ns) / static_cast<double>(count);
}

// ---------------------------------------------------------------------------
// Machine-speed reference. The benchmark shares its host with other tenants,
// whose load slows every cache- and memory-bound loop on it by up to a third,
// for seconds to minutes at a time. A fixed reference pass -- a pointer walk
// over 16 MiB, ordered-map churn and a sort, the shape of a simulator's
// event-queue and fleet-table work, calling no library code -- is timed
// before and after every repetition, on as many threads as the repetition
// runs. run.py scales the repetition's times by the pass's nominal time over
// its measured time: a slow spell of the host slows the workload and the
// pass together and cancels out, while a change to the library moves the
// workload alone. The map and the sort allocate from the pass's own buffer,
// so the state the workload leaves in the process heap cannot change them.

class ReferenceWalk {
 public:
  // A single cycle through every slot, in a fixed pseudo-random order.
  ReferenceWalk() : next_(kSlots) {
    Rng rng(0x5eed);
    std::vector<uint32_t> order(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      order[i] = i;
    }
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<uint32_t>(rng.UniformInt(0, i))]);
    }
    for (uint32_t i = 0; i < kSlots; ++i) {
      next_[order[i]] = order[(i + 1) % kSlots];
    }
  }

  uint32_t Walk(uint32_t from, int steps) const {
    for (int i = 0; i < steps; ++i) {
      from = next_[from];
    }
    return from;
  }

 private:
  static constexpr uint32_t kSlots = 1U << 22;  // 16 MiB of uint32_t
  std::vector<uint32_t> next_;
};

class ReferencePass {
 public:
  ReferencePass(const ReferenceWalk* walk, uint32_t start)
      : walk_(walk), start_(start), buffer_(new std::byte[kBufferBytes]) {}

  // Returns a checksum of the work, so none of it can be optimised away.
  uint64_t Run() const {
    uint64_t sum = walk_->Walk(start_, kWalkSteps);
    std::pmr::monotonic_buffer_resource region(buffer_.get(), kBufferBytes);
    std::pmr::unsynchronized_pool_resource pool(&region);
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::pmr::map<uint64_t, uint64_t> queue(&pool);
    for (int i = 0; i < kQueueOps; ++i) {
      const uint64_t key = next();
      queue.emplace(key >> 44, key);
      if (queue.size() > kQueueSize) {
        sum += queue.begin()->second;
        queue.erase(queue.begin());
      }
    }
    std::pmr::vector<uint64_t> keys(kSortSize, &pool);
    for (uint64_t& key : keys) {
      key = next();
    }
    std::sort(keys.begin(), keys.end());
    return sum + keys[kSortSize / 2];
  }

 private:
  static constexpr int kWalkSteps = 200000;
  static constexpr int kQueueOps = 60000;
  static constexpr size_t kQueueSize = 20000;
  static constexpr size_t kSortSize = 50000;
  static constexpr size_t kBufferBytes = size_t{8} << 20;
  const ReferenceWalk* walk_;
  uint32_t start_;
  std::unique_ptr<std::byte[]> buffer_;  // left untouched until used
};

// Where the passes' checksums go, so the compiler keeps their work.
volatile uint64_t g_reference_checksum = 0;

// One reference pass on each of passes.size() threads at once; returns the
// mean of their times (the grid, too, spreads its cells over its workers).
double ReferenceSeconds(const std::vector<ReferencePass>& passes) {
  std::vector<uint64_t> checksums(passes.size());
  std::vector<int64_t> ns(passes.size());
  const auto run = [&passes, &checksums, &ns](size_t t) {
    const int64_t started = NowNs();
    checksums[t] = passes[t].Run();
    ns[t] = NowNs() - started;
  };
  std::vector<std::thread> threads;
  for (size_t t = 1; t < passes.size(); ++t) {
    threads.emplace_back(run, t);
  }
  run(0);
  for (std::thread& thread : threads) {
    thread.join();
  }
  int64_t total_ns = 0;
  for (size_t t = 0; t < passes.size(); ++t) {
    g_reference_checksum = g_reference_checksum + checksums[t];
    total_ns += ns[t];
  }
  return Seconds(total_ns) / static_cast<double>(passes.size());
}

// ---------------------------------------------------------------------------
// Trace pre-warming, shared by every workload: generates (cold catalog) the
// traces a map strategy's candidate pools need, one timed call each.

void PrewarmTraces(const StrategySpec& map, SimDuration horizon, uint64_t seed,
                   SpanLog* log) {
  std::string error;
  const std::vector<MarketKey> keys = PolicyRegistry::Instance().CandidatesFor(
      map, ControllerConfig{}.nested_type, {AvailabilityZone{0}}, &error);
  for (const MarketKey& key : keys) {
    SpanLog::Scope span(log, "market", "TraceCatalog::GetOrGenerate");
    TraceCatalog::Global().GetOrGenerate(key, horizon, seed);
  }
}

void ClearTraceCatalog(SpanLog* log) {
  SpanLog::Scope span(log, "market", "TraceCatalog::Clear");
  TraceCatalog::Global().Clear();
}

// Market time spent in spans [begin, end): the traced trace generation.
double MarketMs(const SpanLog& log, size_t begin, size_t end) {
  int64_t ns = 0;
  for (size_t i = begin; i < end; ++i) {
    if (std::string_view(log.spans()[i].layer) == "market") {
      ns += log.spans()[i].self_ns();
    }
  }
  return Millis(ns);
}

// ---------------------------------------------------------------------------
// paper_grid: the Figure 10-12 / Table 3 grid -- the five Table-2 mapping
// policies x the four migration mechanisms, 40 VMs and 180 days per cell,
// for kGridSeeds market seeds -- through RunPolicyEvaluationGrid.

constexpr int kGridSeeds = 5;
constexpr int kGridCellVms = 40;  // one backup server's worth, as in Table 3
constexpr const char* kGridMaps[] = {"1p-m", "2p-ml", "4p-ed", "4p-cost",
                                     "4p-st"};
constexpr MigrationMechanism kGridMechanisms[] = {
    MigrationMechanism::kXenLiveMigration, MigrationMechanism::kYankFullRestore,
    MigrationMechanism::kSpotCheckFullRestore,
    MigrationMechanism::kSpotCheckLazyRestore};

class PaperGrid {
 public:
  PaperGrid(uint64_t seed, int jobs) : jobs_(jobs) {
    Rng rng(seed);
    for (int s = 0; s < kGridSeeds; ++s) {
      const uint64_t cell_seed =
          rng.Split(static_cast<uint64_t>(s)).NextU64() % 1000000 + 1;
      for (const char* map : kGridMaps) {
        for (MigrationMechanism mechanism : kGridMechanisms) {
          EvaluationConfig config;
          config.policy_spec = PolicySpec::Parse(std::string("map=") + map);
          config.mechanism = mechanism;
          config.num_vms = kGridCellVms;
          config.horizon = SimDuration::Days(180);
          config.seed = cell_seed;
          config.report_label = std::string(map) + "/" +
                                std::string(MigrationMechanismName(mechanism)) +
                                "/" + std::to_string(cell_seed);
          configs_.push_back(config);
        }
      }
    }
  }

  // Cold-catalog trace generation for every cell; the catalog stays warm
  // for the repetitions that follow. Returns its wall time in nanoseconds.
  int64_t Setup(SpanLog* log) {
    const size_t first_span = log != nullptr ? log->size() : 0;
    const int64_t started = NowNs();
    ClearTraceCatalog(log);
    for (const EvaluationConfig& config : configs_) {
      PrewarmTraces(config.policy_spec->map,
                    config.horizon + SimDuration::Days(1), config.seed, log);
    }
    const int64_t setup_ns = NowNs() - started;
    if (log != nullptr) {
      trace_generate_ms_ = MarketMs(*log, first_span, log->size());
    }
    return setup_ns;
  }

  Rep Run(bool traced, SpanLog* log, Checks& checks) {
    std::vector<EvaluationConfig> configs = configs_;
    for (EvaluationConfig& config : configs) {
      config.collect_profile = traced;
    }
    SpanTracer worker_tracer;
    GridContentionReport contention;
    GridRunOptions options;
    options.jobs = jobs_;
    options.worker_tracer = &worker_tracer;
    options.contention = &contention;

    Rep rep;
    rep.traced = traced;
    const size_t first_span = log != nullptr ? log->size() : 0;
    const int64_t heap_before = HeapInUseBytes();
    const int64_t started = NowNs();
    std::vector<EvaluationResult> results;
    {
      SpanLog::Scope span(log, "core.grid", "RunPolicyEvaluationGrid");
      results = RunPolicyEvaluationGrid(configs, options);
    }
    const int64_t wall_ns = NowNs() - started;
    rep.wall_s = Seconds(wall_ns);
    rep.cells = static_cast<int64_t>(results.size());
    rep.vms = rep.cells * kGridCellVms;
    rep.bytes_per_vm = static_cast<double>(HeapInUseBytes() - heap_before) /
                       static_cast<double>(rep.vms);

    for (const TraceSpan& span : worker_tracer.spans()) {
      if (span.name == "grid.cell") {
        rep.cell_ms.push_back(span.duration().millis());
      }
    }
    checks.Expect(rep.cell_ms.size() == results.size(),
                  "paper_grid: one worker span per cell");

    std::map<std::string, int64_t> counters;
    EventCostProfiler profile;
    int64_t report_ns = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const EvaluationResult& r = results[i];
      const Outcome outcome = OutcomeOf(r);
      rep.outcome.push_back(outcome);
      rep.vm_hours += r.vm_hours;
      CheckOutcome(checks, outcome, configs[i].report_label);
      checks.Expect(r.report != nullptr && r.report->metrics != nullptr,
                    configs[i].report_label + ": no run report");
      if (r.report == nullptr || r.report->metrics == nullptr) {
        continue;
      }
      const MetricsRegistry& m = *r.report->metrics;
      checks.Expect(CounterValue(m, "controller.revocation_events") ==
                            r.revocation_events &&
                        CounterValue(m, "virt.evacuations") == r.evacuations &&
                        CounterValue(m, "controller.repatriations") ==
                            r.repatriations &&
                        CounterValue(m, "virt.failed_migrations") ==
                            r.failed_migrations &&
                        CounterValue(m, "backup.servers_provisioned") ==
                            r.num_backup_servers,
                    configs[i].report_label +
                        ": metrics registry disagrees with the result");
      if (traced) {
        SumCounters(m, counters);
        report_ns += r.report_build_ns;
        if (r.profile != nullptr) {
          profile.MergeFrom(*r.profile);
        }
      }
    }

    if (traced) {
      AddInstrumentLayers(profile, counters, rep.layers);
      AddSpanLayers(*log, first_span, log->size(), rep.layers);
      AddGridLayers(&contention, report_ns, rep.layers);
      AddChurnLayers(wall_ns, 0, {}, rep.layers);
      rep.layers["market.trace_generate_ms"] = trace_generate_ms_;
      int64_t hits = 0;
      int64_t misses = 0;
      int64_t lock_wait_ns = 0;
      int64_t busy_ns = 0;
      for (const GridWorkerProfile& w : contention.workers) {
        hits += w.catalog_hits;
        misses += w.catalog_misses;
        lock_wait_ns += w.catalog_lock_wait_ns;
        busy_ns += w.busy_ns;
      }
      rep.layers["market.catalog_hits"] = static_cast<double>(hits);
      rep.layers["market.catalog_misses"] = static_cast<double>(misses);
      rep.layers["market.catalog_lock_wait_ms"] = Millis(lock_wait_ns);
      // Ledger, in worker time: what the workers spent inside cells that
      // neither the kernel categories nor the report build account for
      // (cell set-up, the dispatch loop itself, result roll-up).
      rep.layers["unattributed_ms"] =
          Millis(busy_ns) - KernelMs(profile) - Millis(report_ns);
    }
    return rep;
  }

  // One sampled cell re-run serially on this thread must match its grid
  // result bit for bit.
  void CheckSerialRerun(uint64_t seed, const Rep& grid_rep, Checks& checks) {
    const size_t index = static_cast<size_t>(seed % configs_.size());
    const EvaluationResult serial = RunPolicyEvaluation(configs_[index]);
    checks.Expect(index < grid_rep.outcome.size() &&
                      OutcomeOf(serial).SameAs(grid_rep.outcome[index]),
                  configs_[index].report_label +
                      ": serial re-run differs from its grid result");
  }

 private:
  int jobs_;
  std::vector<EvaluationConfig> configs_;
  double trace_generate_ms_ = 0.0;  // of the last traced set-up
};

// ---------------------------------------------------------------------------
// Fleet deployments, wired the way RunPolicyEvaluation wires a cell (per-cell
// arena, metrics registry on), with the benchmark holding the controller so it
// can time each call into it and validate invariants at the end.

struct FleetSpec {
  PolicySpec policy;
  MigrationMechanism mechanism = MigrationMechanism::kSpotCheckLazyRestore;
  SimDuration market_horizon;
  uint64_t market_seed = 1;  // the price history
  uint64_t seed = 1;         // controller draws and control-plane latencies
  int customers = 1;
  bool collect_event_log = true;
};

struct Deployment {
  Deployment(const FleetSpec& spec, bool traced)
      : profiler(traced ? std::make_unique<EventCostProfiler>(
                              ProfilerConfig{64, spec.seed})
                        : nullptr),
        sim(&metrics, nullptr, &arena),
        markets(&sim, &metrics),
        cloud(&sim, &markets, CloudConfig(spec, &metrics)),
        controller(&sim, &cloud, &markets,
                   ControllerConfigFor(spec, &metrics, profiler.get())) {
    sim.set_profiler(profiler.get());
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  static NativeCloudConfig CloudConfig(const FleetSpec& spec,
                                       MetricsRegistry* metrics) {
    NativeCloudConfig config;
    config.market_horizon = spec.market_horizon;
    config.market_seed = spec.market_seed;
    config.latency_seed = spec.seed ^ 0xfeed;
    config.metrics = metrics;
    return config;
  }
  static ControllerConfig ControllerConfigFor(const FleetSpec& spec,
                                              MetricsRegistry* metrics,
                                              EventCostProfiler* profiler) {
    ControllerConfig config;
    config.policy_spec = spec.policy;
    config.mechanism = spec.mechanism;
    config.seed = spec.seed;
    config.collect_event_log = spec.collect_event_log;
    config.metrics = metrics;
    config.profiler = profiler;
    return config;
  }

  // Declared first: everything below points into these.
  std::pmr::unsynchronized_pool_resource arena;
  MetricsRegistry metrics;
  std::unique_ptr<EventCostProfiler> profiler;
  Simulator sim;
  MarketPlace markets;
  NativeCloud cloud;
  SpotCheckController controller;
};

// Builds a deployment (cold trace catalog) and registers its customers; the
// set-up the fleet workloads time.
std::unique_ptr<Deployment> SetUpFleet(const FleetSpec& spec, bool traced,
                                       SpanLog* log,
                                       std::vector<CustomerId>& customers) {
  ClearTraceCatalog(log);
  PrewarmTraces(spec.policy.map, spec.market_horizon, spec.market_seed, log);
  std::unique_ptr<Deployment> d;
  {
    SpanLog::Scope span(log, "core", "Deployment");
    d = std::make_unique<Deployment>(spec, traced);
  }
  customers.clear();
  for (int c = 0; c < spec.customers; ++c) {
    SpanLog::Scope span(log, "core.api", "RegisterCustomer");
    customers.push_back(d->controller.RegisterCustomer());
  }
  return d;
}

// Invariants plus the registry-vs-controller reconciliation.
void CheckFleet(const Deployment& d, const std::string& where, Checks& checks) {
  std::string error;
  const bool valid = d.controller.ValidateInvariants(&error);
  checks.Expect(valid, where + ": invariant violated: " + error);
  const SpotCheckController& c = d.controller;
  checks.Expect(
      CounterValue(d.metrics, "controller.revocation_events") ==
              c.revocation_events() &&
          CounterValue(d.metrics, "controller.repatriations") ==
              c.repatriations() &&
          CounterValue(d.metrics, "controller.vms_lost") == c.vms_lost() &&
          CounterValue(d.metrics, "virt.evacuations") ==
              c.engine().evacuations() &&
          CounterValue(d.metrics, "backup.servers_provisioned") ==
              c.backup_pool().num_servers() &&
          CounterValue(d.metrics, "backup.assignments") -
                  CounterValue(d.metrics, "backup.releases") ==
              c.backup_pool().num_assigned(),
      where + ": metrics registry disagrees with the controller");
  checks.Expect(d.markets.trace_cache_misses() == 0,
                where + ": a trace was generated after set-up");
}

// Simulated outcome of a fleet run, computed the way RunPolicyEvaluation
// computes its result; each call is timed.
Outcome FleetOutcome(const Deployment& d, SpanLog* log) {
  Outcome o;
  SpotCheckController::CostReport cost;
  {
    SpanLog::Scope span(log, "cloud", "ComputeCostReport");
    cost = d.controller.ComputeCostReport();
  }
  {
    SpanLog::Scope span(log, "virt", "ActivityLog::MeanFraction");
    const ActivityLog& activity = d.controller.activity_log();
    o.unavailability_pct =
        activity.MeanFraction(ActivityKind::kDowntime, SimTime(), d.sim.Now()) *
        100.0;
    o.degradation_pct =
        activity.MeanFraction(ActivityKind::kDegraded, SimTime(), d.sim.Now()) *
        100.0;
  }
  o.cost_per_vm_hour = cost.avg_cost_per_vm_hour;
  o.vm_hours = cost.vm_hours;
  o.revocations = d.controller.revocation_events();
  o.evacuations = d.controller.engine().evacuations();
  o.repatriations = d.controller.repatriations();
  o.backup_servers = d.controller.backup_pool().num_servers();
  return o;
}

// `churn_ns`: the part of the timed window `wall_ns` spent in churn ticks.
void AddFleetLayers(const Deployment& d, const SpanLog& log, size_t begin,
                    size_t end, int64_t wall_ns, int64_t churn_ns, Rep& rep) {
  std::map<std::string, int64_t> counters;
  SumCounters(d.metrics, counters);
  AddInstrumentLayers(*d.profiler, counters, rep.layers);
  AddSpanLayers(log, begin, end, rep.layers);
  AddGridLayers(nullptr, 0, rep.layers);
  rep.layers["market.catalog_hits"] =
      static_cast<double>(d.markets.trace_cache_hits());
  rep.layers["market.catalog_misses"] =
      static_cast<double>(d.markets.trace_cache_misses());
  rep.layers["market.catalog_lock_wait_ms"] =
      Millis(d.markets.trace_cache_lock_wait_ns());
  // Ledger: timed-window wall time covered neither by a benchmark span outside
  // the kernel nor by the kernel's profiled categories inside RunUntil.
  double covered_ms = KernelMs(*d.profiler);
  for (size_t i = begin; i < end; ++i) {
    const SpanLog::Span& s = log.spans()[i];
    if (std::string_view(s.layer) != "sim") {
      covered_ms += Millis(s.self_ns());
    }
  }
  rep.layers["unattributed_ms"] = Millis(wall_ns) - covered_ms;
  rep.request_us = CallMicros(log, begin, end, "RequestServer");
  rep.release_us = CallMicros(log, begin, end, "ReleaseServer");
  AddChurnLayers(wall_ns, churn_ns, rep.release_us, rep.layers);
}

// ---------------------------------------------------------------------------
// fleet_storm: one 30-day 4P-ED lazy-restore cell of kStormVms VMs, wired
// exactly like RunPolicyEvaluation (7-day placement delay, round-robin
// customers of 200 VMs) and stepped kStormStep of simulated time at a time
// once the fleet is placed (each step is one "cell" sample). The price
// history is pinned -- one synthetic 30-day history with storms, as the
// paper replays one 2014 history -- so every seed does the same storm work;
// the seed drives the controller's draws and the control-plane latencies.

constexpr int kStormVms = 2000;
constexpr uint64_t kStormMarketSeed = 1;
// 138 steps per repetition, so each repetition alone supports a p90.
constexpr SimDuration kStormStep = SimDuration::Hours(4);
constexpr int kVmsPerCustomer = 200;
// Size of the cell that checks the benchmark's wiring against the library.
constexpr int kWiringCheckVms = 200;

EvaluationConfig StormEvaluationConfig(int num_vms, uint64_t seed) {
  EvaluationConfig config;
  config.policy_spec = PolicySpec::Parse("map=4p-ed");
  config.mechanism = MigrationMechanism::kSpotCheckLazyRestore;
  config.num_vms = num_vms;
  config.num_customers = std::max(1, num_vms / kVmsPerCustomer);
  config.horizon = SimDuration::Days(30);
  config.seed = seed;
  return config;
}

FleetSpec StormSpec(const EvaluationConfig& eval, uint64_t market_seed) {
  FleetSpec spec;
  spec.policy = *eval.policy_spec;
  spec.mechanism = eval.mechanism;
  spec.market_horizon = eval.horizon + SimDuration::Days(1);
  spec.market_seed = market_seed;
  spec.seed = eval.seed;
  spec.customers = eval.num_customers;
  return spec;
}

Rep RunStormCell(const EvaluationConfig& eval, uint64_t market_seed,
                 bool traced, SpanLog* log, Checks& checks) {
  const FleetSpec spec = StormSpec(eval, market_seed);
  Rep rep;
  rep.traced = traced;
  rep.cells = 1;
  rep.vms = eval.num_vms;
  const int64_t heap_before = HeapInUseBytes();
  const size_t setup_span = log != nullptr ? log->size() : 0;
  std::vector<CustomerId> customers;
  std::unique_ptr<Deployment> d = SetUpFleet(spec, traced, log, customers);
  if (traced) {
    rep.layers["market.trace_generate_ms"] =
        MarketMs(*log, setup_span, log->size());
  }

  const size_t first_span = log != nullptr ? log->size() : 0;
  const int64_t started = NowNs();
  {
    SpanLog::Scope span(log, "sim", "Simulator::RunUntil");
    d->sim.RunUntil(SimTime() + eval.placement_delay);
  }
  for (int i = 0; i < eval.num_vms; ++i) {
    SpanLog::Scope span(log, "core.api", "RequestServer");
    d->controller.RequestServer(
        customers[static_cast<size_t>(i) % customers.size()]);
  }
  for (SimTime step = SimTime() + eval.placement_delay + kStormStep;
       step <= SimTime() + eval.horizon; step = step + kStormStep) {
    const int64_t step_started = NowNs();
    {
      SpanLog::Scope span(log, "sim", "Simulator::RunUntil");
      d->sim.RunUntil(step);
    }
    rep.cell_ms.push_back(Millis(NowNs() - step_started));
  }
  const Outcome outcome = FleetOutcome(*d, log);
  const int64_t wall_ns = NowNs() - started;
  const size_t last_span = log != nullptr ? log->size() : 0;
  rep.wall_s = Seconds(wall_ns);
  rep.vm_hours = outcome.vm_hours;
  rep.outcome.push_back(outcome);
  rep.bytes_per_vm = static_cast<double>(HeapInUseBytes() - heap_before) /
                     static_cast<double>(rep.vms);

  CheckOutcome(checks, outcome, "fleet_storm");
  CheckFleet(*d, "fleet_storm", checks);
  checks.Expect(outcome.revocations > 0 && outcome.evacuations > 0,
                "fleet_storm: no revocation storm to measure");
  if (traced) {
    AddFleetLayers(*d, *log, first_span, last_span, wall_ns, 0, rep);
  }
  return rep;
}

Rep RunStorm(uint64_t seed, bool traced, SpanLog* log, Checks& checks) {
  return RunStormCell(StormEvaluationConfig(kStormVms, seed), kStormMarketSeed,
                      traced, log, checks);
}

// The benchmark's wiring must reproduce the library's evaluation path: a small
// storm cell (market seed = cell seed, as RunPolicyEvaluation wires it) run
// both ways gives the same outcome bit for bit.
void CheckStormWiring(uint64_t seed, Checks& checks) {
  const EvaluationConfig eval = StormEvaluationConfig(kWiringCheckVms, seed);
  Checks cell_checks;  // only the comparison counts here
  const Rep bench = RunStormCell(eval, eval.seed, false, nullptr, cell_checks);
  const EvaluationResult library = RunPolicyEvaluation(eval);
  checks.Expect(
      OutcomeOf(library).SameAs(bench.outcome.at(0)),
      "fleet_storm: benchmark wiring differs from RunPolicyEvaluation");
}

// ---------------------------------------------------------------------------
// fleet_churn: a burst of kChurnVms requests (200 VMs per customer) on a
// 1-day market, settled for an hour, then an open loop in simulated time:
// every kChurnTick, kChurnPerTick seeded ReleaseServer + RequestServer pairs
// (each replacement goes to the released VM's customer), for kChurnTicks
// ticks (4 simulated hours).
// The bid sits far above any price the synthetic market reaches, so no
// revocation, evacuation or migration happens.
//
// The burst takes about 90% of the timed window and the churn ticks the rest
// (churn.phase_share, about 0.11). Within a tick the ReleaseServer calls take
// about half the time (churn.release_share, about 0.5), so a slower release
// path shows in cell_ms_p50/p90, which time the ticks, at about half its own
// slowdown; vm_hours_per_s moves by only about 6% of it.

constexpr int kChurnVms = 50000;
constexpr SimDuration kChurnSettle = SimDuration::Hours(1);
// 120 ticks per repetition, so each repetition alone supports a p90.
constexpr SimDuration kChurnTick = SimDuration::Minutes(2);
constexpr int kChurnTicks = 120;
constexpr int kChurnPerTick = 50;
constexpr int kChurnCheckpointTicks = 30;
constexpr SimDuration kChurnDrain = SimDuration::Minutes(30);

FleetSpec ChurnSpec(uint64_t seed) {
  FleetSpec spec;
  spec.policy = *PolicySpec::Parse("bid=multiple:1000,map=1p-m");
  spec.market_horizon = SimDuration::Days(1);
  spec.market_seed = seed;
  spec.seed = seed;
  spec.customers = kChurnVms / kVmsPerCustomer;
  spec.collect_event_log = false;
  return spec;
}

Rep RunChurn(uint64_t seed, bool traced, SpanLog* log, Checks& checks) {
  const FleetSpec spec = ChurnSpec(seed);
  Rng rng = Rng(seed).Split(0xc4u);

  Rep rep;
  rep.traced = traced;
  rep.cells = 1;
  rep.vms = kChurnVms;
  const int64_t heap_before = HeapInUseBytes();
  const size_t setup_span = log != nullptr ? log->size() : 0;
  std::vector<CustomerId> customers;
  std::unique_ptr<Deployment> d = SetUpFleet(spec, traced, log, customers);
  if (traced) {
    rep.layers["market.trace_generate_ms"] =
        MarketMs(*log, setup_span, log->size());
  }

  std::vector<NestedVmId> live;
  std::vector<CustomerId> owner;
  live.reserve(kChurnVms);
  owner.reserve(kChurnVms);
  const size_t first_span = log != nullptr ? log->size() : 0;
  int64_t wall_ns = 0;  // timed window, excluding the checkpoints
  int64_t started = NowNs();
  for (int i = 0; i < kChurnVms; ++i) {
    const CustomerId customer =
        customers[static_cast<size_t>(i / kVmsPerCustomer)];
    SpanLog::Scope span(log, "core.api", "RequestServer");
    live.push_back(d->controller.RequestServer(customer));
    owner.push_back(customer);
  }
  {
    SpanLog::Scope span(log, "sim", "Simulator::RunUntil");
    d->sim.RunUntil(SimTime() + kChurnSettle);
  }
  wall_ns += NowNs() - started;
  rep.bytes_per_vm = static_cast<double>(HeapInUseBytes() - heap_before) /
                     static_cast<double>(kChurnVms);
  CheckFleet(*d, "fleet_churn burst", checks);
  checks.Expect(d->controller.RunningVmCount() == kChurnVms,
                "fleet_churn: burst did not settle to a running fleet");

  int64_t churn_ns = 0;
  for (int tick = 1; tick <= kChurnTicks; ++tick) {
    started = NowNs();
    {
      SpanLog::Scope span(log, "sim", "Simulator::RunUntil");
      d->sim.RunUntil(SimTime() + kChurnSettle + kChurnTick * tick);
    }
    for (int k = 0; k < kChurnPerTick; ++k) {
      const auto j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      {
        SpanLog::Scope span(log, "core.api", "ReleaseServer");
        d->controller.ReleaseServer(live[j]);
      }
      SpanLog::Scope span(log, "core.api", "RequestServer");
      live[j] = d->controller.RequestServer(owner[j]);
    }
    const int64_t tick_ns = NowNs() - started;
    wall_ns += tick_ns;
    churn_ns += tick_ns;
    rep.cell_ms.push_back(Millis(tick_ns));
    if (tick % kChurnCheckpointTicks == 0 && tick < kChurnTicks) {
      CheckFleet(*d, "fleet_churn tick " + std::to_string(tick), checks);
    }
  }
  started = NowNs();
  {
    SpanLog::Scope span(log, "sim", "Simulator::RunUntil");
    d->sim.RunUntil(SimTime() + kChurnSettle + kChurnTick * kChurnTicks +
                    kChurnDrain);
  }
  const Outcome outcome = FleetOutcome(*d, log);
  wall_ns += NowNs() - started;
  const size_t last_span = log != nullptr ? log->size() : 0;
  rep.wall_s = Seconds(wall_ns);
  rep.vm_hours = outcome.vm_hours;
  rep.outcome.push_back(outcome);

  CheckOutcome(checks, outcome, "fleet_churn");
  CheckFleet(*d, "fleet_churn end", checks);
  checks.Expect(d->controller.RunningVmCount() == kChurnVms,
                "fleet_churn: fleet did not settle back to full size");
  checks.Expect(outcome.revocations == 0 && outcome.evacuations == 0,
                "fleet_churn: unexpected revocation");
  if (traced) {
    AddFleetLayers(*d, *log, first_span, last_span, wall_ns, churn_ns, rep);
  }
  return rep;
}

// ---------------------------------------------------------------------------

void WriteDoubles(JsonWriter& json, const std::vector<double>& values) {
  json.BeginArray();
  for (double v : values) {
    json.Double(v);
  }
  json.EndArray();
}

void WriteRep(JsonWriter& json, const Rep& rep) {
  json.BeginObject();
  json.Key("traced");
  json.Bool(rep.traced);
  json.Key("setup_s");
  json.Double(rep.setup_s);
  json.Key("reference_s");
  json.Double(rep.reference_s);
  json.Key("wall_s");
  json.Double(rep.wall_s);
  json.Key("vm_hours");
  json.Double(rep.vm_hours);
  json.Key("cells");
  json.Int(rep.cells);
  json.Key("bytes_per_vm");
  json.Double(rep.bytes_per_vm);
  json.Key("cell_ms");
  WriteDoubles(json, rep.cell_ms);
  json.Key("outcome");
  json.BeginArray();
  for (const Outcome& o : rep.outcome) {
    o.Write(json);
  }
  json.EndArray();
  if (rep.traced) {
    json.Key("layers");
    json.BeginObject();
    for (const auto& [name, value] : rep.layers) {
      json.Key(name);
      json.Double(value);
    }
    json.EndObject();
    json.Key("request_us");
    WriteDoubles(json, rep.request_us);
    json.Key("release_us");
    WriteDoubles(json, rep.release_us);
  }
  json.EndObject();
}

int Run(int argc, const char* const* argv) {
  const FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string out_path = flags.GetString("out", "");
  const std::string spans_path = flags.GetString("spans-out", "");
  flags.ExitIfUnknownFlags(
      "--workload=paper_grid|fleet_storm|fleet_churn, --seed=N, --seconds=S, "
      "--trace=0|1, --out=PATH, --spans-out=PATH");
  if (workload != "paper_grid" && workload != "fleet_storm" &&
      workload != "fleet_churn") {
    std::fprintf(stderr, "error: unknown --workload '%s'\n", workload.c_str());
    return 2;
  }
  if (out_path.empty() || !(seconds > 0.0)) {
    std::fprintf(stderr, "error: --out=PATH and --seconds > 0 are required\n");
    return 2;
  }

  const unsigned hardware = std::thread::hardware_concurrency();
  const int jobs = std::min(4, AvailableCpus());
  SpanLog span_log;
  SpanLog* log = trace ? &span_log : nullptr;
  Checks checks;
  std::vector<Rep> reps;

  // One cold set-up, from an empty trace catalog. The grid's set-up leaves
  // the catalog warm for the repetition that follows; a fleet repetition
  // sets up its own deployment.
  std::unique_ptr<PaperGrid> grid;
  std::function<int64_t()> set_up;
  if (workload == "paper_grid") {
    grid = std::make_unique<PaperGrid>(seed, jobs);
    set_up = [&grid, log] { return grid->Setup(log); };
  } else {
    const FleetSpec spec =
        workload == "fleet_storm"
            ? StormSpec(StormEvaluationConfig(kStormVms, seed),
                        kStormMarketSeed)
            : ChurnSpec(seed);
    set_up = [spec] {
      std::vector<CustomerId> customers;
      const int64_t started = NowNs();
      const std::unique_ptr<Deployment> d =
          SetUpFleet(spec, false, nullptr, customers);
      return NowNs() - started;
    };
  }

  const auto run_workload = [&](bool traced, SpanLog* rep_log,
                                Checks& rep_checks) {
    if (workload == "paper_grid") {
      return grid->Run(traced, rep_log, rep_checks);
    }
    if (workload == "fleet_storm") {
      return RunStorm(seed, traced, rep_log, rep_checks);
    }
    return RunChurn(seed, traced, rep_log, rep_checks);
  };

  // A reference pass, one set-up sample, one repetition of the workload and
  // another reference pass. A traced run pairs each traced repetition with
  // an untraced twin, so the pair sees the same machine state; which of the
  // two goes first alternates. run.py checks that all repetitions share one
  // outcome digest.
  const ReferenceWalk walk;
  std::vector<ReferencePass> passes;
  for (int t = 0; t < (workload == "paper_grid" ? jobs : 1); ++t) {
    passes.emplace_back(&walk, static_cast<uint32_t>(t) * 1000003U);
  }
  const auto run_rep = [&](bool traced) {
    const double reference_before = ReferenceSeconds(passes);
    const double setup = SetUpSeconds(set_up);
    Rep rep = run_workload(traced, traced ? log : nullptr, checks);
    rep.setup_s = setup;
    rep.reference_s = (reference_before + ReferenceSeconds(passes)) / 2.0;
    reps.push_back(std::move(rep));
  };

  // One untimed repetition first, so the first timed one pays no one-time
  // costs (the grid's warm trace catalog, the heap's first growth).
  if (workload == "paper_grid") {
    grid->Setup(nullptr);
  }
  Checks warmup_checks;
  run_workload(false, nullptr, warmup_checks);

  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const size_t min_reps = trace ? 4 : 3;
  for (bool traced_first = false;
       reps.size() < min_reps || NowNs() < deadline;
       traced_first = !traced_first) {
    run_rep(trace && traced_first);
    if (trace) {
      run_rep(!traced_first);
    }
  }

  if (workload == "paper_grid") {
    grid->CheckSerialRerun(seed, reps.front(), checks);
  } else if (workload == "fleet_storm") {
    CheckStormWiring(seed, checks);
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("workload");
  json.String(workload);
  json.Key("seed");
  json.Uint(seed);
  json.Key("trace");
  json.Bool(trace);
  json.Key("context");
  json.BeginObject();
  json.Key("hardware_concurrency");
  json.Int(static_cast<int64_t>(hardware));
  json.Key("grid_jobs");
  json.Int(jobs);
  json.Key("build_type");
  json.String(PERFBENCH_BUILD_TYPE);
  json.EndObject();
  json.Key("peak_rss_bytes");
  json.Int(PeakRssBytes());
  json.Key("checks");
  checks.Write(json);
  json.Key("reps");
  json.BeginArray();
  for (const Rep& rep : reps) {
    WriteRep(json, rep);
  }
  json.EndArray();
  json.EndObject();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.str().data(), 1, json.str().size(), out);
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  if (trace && !spans_path.empty() && !span_log.WriteCsv(spans_path)) {
    std::fprintf(stderr, "error: could not write %s\n", spans_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace spotcheck

int main(int argc, char** argv) { return spotcheck::Run(argc, argv); }
