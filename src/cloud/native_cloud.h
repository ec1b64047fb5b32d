// Native IaaS cloud simulator (the "EC2" SpotCheck rents from).
//
// Exposes the control-plane surface SpotCheck depends on:
//   * asynchronous spot and on-demand instance launches (latencies per
//     Table 1),
//   * spot revocation: when a market's price rises above an instance's bid,
//     the instance receives a revocation warning and is forcibly terminated
//     a fixed warning period later (120 s on EC2),
//   * usage-based billing (spot at market price, on-demand at list price).
//
// The EBS volume and ENI address moves of a migration are not modeled here:
// the migration engine charges their Table-1 latencies as one downtime term
// (MigrationEngineConfig::ec2_ops_downtime), and each nested VM's private
// address lives in the VirtualPrivateCloud (src/net).

#ifndef SRC_CLOUD_NATIVE_CLOUD_H_
#define SRC_CLOUD_NATIVE_CLOUD_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/cloud/billing.h"
#include "src/cloud/latency_model.h"
#include "src/common/fleet_store.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/market/instance_types.h"
#include "src/market/spot_market.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace spotcheck {

enum class BillingMode : uint8_t { kOnDemand, kSpot };
enum class InstanceState : uint8_t { kPending, kRunning, kWarned, kTerminated };

struct Instance {
  InstanceId id;
  MarketKey market;
  BillingMode mode = BillingMode::kSpot;
  double bid = 0.0;  // $/hr; meaningful for spot only
  InstanceState state = InstanceState::kPending;
};

struct NativeCloudConfig {
  // EC2 gives spot instances a two-minute termination notice.
  SimDuration revocation_warning = SimDuration::Seconds(120);
  // Horizon/seed used when lazily materializing markets in the MarketPlace.
  SimDuration market_horizon = SimDuration::Days(180);
  uint64_t market_seed = 1;
  uint64_t latency_seed = 42;
  // When false, every control-plane operation takes its median latency
  // (deterministic; used by unit tests).
  bool sample_latencies = true;
  // Probability that an on-demand request fails because the platform is out
  // of capacity (Section 4.3 discusses this rare case).
  double on_demand_unavailable_probability = 0.0;
  // Optional observability registry (cloud.* counters and the
  // operation-latency histogram). Purely observational; must outlive the
  // cloud when set.
  MetricsRegistry* metrics = nullptr;
  // Optional span tracer: every control-plane operation records a span of
  // its Table-1 latency on the affected instance's "host/<id>" track.
  // Purely observational; must outlive the cloud when set.
  SpanTracer* tracer = nullptr;
};

// (instance, success). Fired once per launch when it resolves. Launch
// failures happen when a spot request's bid is already below the market
// price when it would start, when on-demand capacity is exhausted, when the
// instance is terminated while pending, or when the zone is down.
using LaunchHandler = std::function<void(InstanceId, bool)>;
// (instance, termination deadline). Fired once when a spot instance enters
// the warning period.
using RevocationWarningHandler = std::function<void(InstanceId, SimTime)>;
// Fired when an instance dies WITHOUT any warning (platform/zone failure).
using InstanceFailureHandler = std::function<void(InstanceId)>;

class NativeCloud {
 public:
  NativeCloud(Simulator* sim, MarketPlace* markets, NativeCloudConfig config = {});

  NativeCloud(const NativeCloud&) = delete;
  NativeCloud& operator=(const NativeCloud&) = delete;

  // --- Instances ---------------------------------------------------------

  // Both report the launch's outcome to the launch handler.
  InstanceId RequestSpotInstance(MarketKey market, double bid);
  InstanceId RequestOnDemandInstance(MarketKey market);
  // Graceful, customer-initiated termination. Billing stops and the
  // instance reads kTerminated at once; the terminate operation's latency
  // is drawn and recorded (cloud.op_latency_s, a cloud.terminate span), but
  // nothing waits for it. Instances are never erased.
  void TerminateInstance(InstanceId id);

  const Instance* GetInstance(InstanceId id) const;
  std::vector<const Instance*> Instances(InstanceState state) const;
  // Invoked whenever any launch of this cloud resolves.
  void set_launch_handler(LaunchHandler handler) {
    launch_handler_ = std::move(handler);
  }
  // Invoked whenever any spot instance receives its termination warning.
  void set_revocation_handler(RevocationWarningHandler handler) {
    revocation_handler_ = std::move(handler);
  }
  void set_instance_failure_handler(InstanceFailureHandler handler) {
    failure_handler_ = std::move(handler);
  }

  // --- Platform failures ----------------------------------------------------

  // The native platform itself occasionally fails (the paper cites an EC2
  // region outage [17]); SpotCheck cannot exceed its availability, but it
  // CAN recover VMs whose checkpoints survive. Schedules every instance in
  // `zone` to die at `at` with no warning; launches into the zone fail until
  // `until`.
  void ScheduleZoneOutage(AvailabilityZone zone, SimTime at, SimTime until);
  bool ZoneAvailable(AvailabilityZone zone) const;
  int64_t instance_failures() const { return instance_failures_; }

  // Kills one running (or warned) instance immediately with NO warning, as a
  // single-host platform failure -- the per-instance analogue of a zone
  // outage, used by the fault-injection layer (src/chaos). Returns false
  // (and does nothing) when the instance is unknown or already terminated.
  bool InjectInstanceFailure(InstanceId id);

  // Fault-injection hook consulted when a spot launch would otherwise
  // succeed; returning true fails the launch (simulated spot-capacity
  // shortage). Never invoked when unset, so the default behavior -- and the
  // RNG stream -- is untouched without a chaos layer.
  using SpotLaunchFaultHook = std::function<bool(const Instance&)>;
  void set_spot_launch_fault_hook(SpotLaunchFaultHook hook) {
    spot_launch_fault_hook_ = std::move(hook);
  }

  // --- Billing & stats ----------------------------------------------------

  double TotalCost() const { return billing_.TotalCost(sim_->Now()); }
  double AccruedCost(InstanceId id) const {
    return billing_.AccruedCost(id, sim_->Now());
  }

  int64_t spot_revocations() const { return spot_revocations_; }
  int64_t launches() const { return launches_; }

  SpotMarket& MarketFor(MarketKey key);

 private:
  SimDuration OperationDelay(CloudOperation op);
  // Records an operation span [Now, Now + delay) on `instance`'s host track,
  // adopting the ambient trace parent; 0 when tracing is off.
  SpanId TraceOp(std::string_view name, InstanceId instance, SimDuration delay);
  void OnInstanceStarted(InstanceId id);
  // A launch that will never run: terminates it, counts the failure and
  // reports it.
  void FailLaunch(Instance& instance);
  void OnMarketPriceChange(MarketKey key, double price);
  // Flips the instance to kWarned, counts the revocation, and fires the
  // revocation handler. Does NOT schedule the termination: the sweep in
  // OnMarketPriceChange schedules ONE terminator event for the whole warned
  // cohort instead of one per instance.
  void WarnInstance(Instance& instance, SimTime deadline);
  void ForceTerminate(InstanceId id);
  void FailZoneInstances(AvailabilityZone zone);
  // Shared no-warning kill: terminates, stops billing, counts the failure,
  // and fires the failure handler.
  void FailInstance(Instance& instance);

  Simulator* sim_;
  MarketPlace* markets_;
  NativeCloudConfig config_;
  OperationLatencyModel latency_;
  Rng rng_;
  BillingMeter billing_;

  IdGenerator<InstanceTag> instance_ids_;

  // Arena storage (fleet-scale): O(1) id lookups, no per-record heap nodes,
  // id-order iteration. Instances are never erased within a simulation.
  FleetTable<InstanceTag, Instance> instances_;
  // Running spot instances per market, so price changes only touch the
  // affected market's instances (terminated ids are compacted lazily).
  // `min_bid` is a conservative lower bound over the listed instances
  // (never above the true minimum of the still-running ones): a price
  // change that crosses nobody's bid is a no-op, so the market's quiet
  // band for this cloud is every price up to it, and the kernel skips
  // those points. It is tightened on every full sweep.
  struct SpotIndex {
    std::vector<InstanceId> ids;
    double min_bid = std::numeric_limits<double>::infinity();
    // The market and this cloud's revocation listener on it, subscribed
    // when its first spot instance starts; null until then.
    SpotMarket* market = nullptr;
    size_t listener = 0;
  };
  // Declares the prices at which OnMarketPriceChange returns early.
  static void DeclareQuietBand(const SpotIndex& index);
  std::map<MarketKey, SpotIndex> running_spot_;
  std::vector<InstanceId> to_warn_scratch_;  // reused sweep buffer

  LaunchHandler launch_handler_;
  RevocationWarningHandler revocation_handler_;
  InstanceFailureHandler failure_handler_;
  SpotLaunchFaultHook spot_launch_fault_hook_;
  std::map<int, SimTime> zone_down_until_;
  int64_t spot_revocations_ = 0;
  int64_t launches_ = 0;
  int64_t instance_failures_ = 0;

  // Observability instruments; all null when config_.metrics is null.
  MetricCounter* launch_requests_metric_ = nullptr;
  MetricCounter* launches_metric_ = nullptr;
  MetricCounter* launch_failures_metric_ = nullptr;
  MetricCounter* terminations_metric_ = nullptr;
  MetricCounter* revocation_warnings_metric_ = nullptr;
  MetricCounter* instance_failures_metric_ = nullptr;
  MetricHistogram* op_latency_metric_ = nullptr;
};

}  // namespace spotcheck

#endif  // SRC_CLOUD_NATIVE_CLOUD_H_
