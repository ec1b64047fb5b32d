#include "src/cloud/billing.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "src/market/price_trace.h"
#include "src/market/spot_price_process.h"

namespace spotcheck {
namespace {

TEST(BillingMeterTest, FixedRateAccrues) {
  BillingMeter meter;
  const InstanceId id(1);
  meter.StartFixed(id, SimTime(), 0.070);
  const SimTime later = SimTime() + SimDuration::Hours(10);
  EXPECT_NEAR(meter.AccruedCost(id, later), 0.70, 1e-12);
  EXPECT_NEAR(meter.TotalCost(later), 0.70, 1e-12);
}

TEST(BillingMeterTest, MeteredFollowsTrace) {
  PriceTrace trace;
  trace.Append(SimTime(), 0.01);
  trace.Append(SimTime() + SimDuration::Hours(1), 0.03);
  BillingMeter meter;
  const InstanceId id(1);
  meter.StartMetered(id, SimTime(), &trace);
  // 1h at 0.01 + 1h at 0.03 = 0.04.
  EXPECT_NEAR(meter.AccruedCost(id, SimTime() + SimDuration::Hours(2)), 0.04, 1e-9);
}

TEST(BillingMeterTest, StopFreezesCost) {
  BillingMeter meter;
  const InstanceId id(1);
  meter.StartFixed(id, SimTime(), 1.0);
  meter.Stop(id, SimTime() + SimDuration::Hours(2));
  EXPECT_EQ(meter.AccruedCost(id, SimTime() + SimDuration::Hours(5)), 0.0);
  EXPECT_NEAR(meter.TotalCost(SimTime() + SimDuration::Hours(5)), 2.0, 1e-12);
}

TEST(BillingMeterTest, StopUnknownIsNoop) {
  BillingMeter meter;
  meter.Stop(InstanceId(9), SimTime() + SimDuration::Hours(1));
  EXPECT_EQ(meter.TotalCost(SimTime() + SimDuration::Hours(1)), 0.0);
}

TEST(BillingMeterTest, MixedStreamsSum) {
  PriceTrace trace;
  trace.Append(SimTime(), 0.02);
  BillingMeter meter;
  meter.StartFixed(InstanceId(1), SimTime(), 0.07);
  meter.StartMetered(InstanceId(2), SimTime(), &trace);
  const SimTime later = SimTime() + SimDuration::Hours(1);
  EXPECT_NEAR(meter.TotalCost(later), 0.09, 1e-12);
}

TEST(BillingMeterTest, ZeroDurationIsFree) {
  BillingMeter meter;
  meter.StartFixed(InstanceId(1), SimTime() + SimDuration::Hours(1), 1.0);
  EXPECT_EQ(meter.AccruedCost(InstanceId(1), SimTime()), 0.0);
}

// The meter before it queued closed streams: each Stop adds the stream's
// cost to the closed total at once. Its open streams sit in the same kind
// of map, updated by the same calls, so TotalCost visits them in the same
// order as BillingMeter's.
class EagerMeter {
 public:
  void StartFixed(InstanceId id, SimTime now, double rate) {
    open_[id] = {now, rate, nullptr};
  }
  void StartMetered(InstanceId id, SimTime now, const PriceTrace* trace) {
    open_[id] = {now, 0.0, trace};
  }
  void Stop(InstanceId id, SimTime now) {
    const auto it = open_.find(id);
    if (it == open_.end()) {
      return;
    }
    closed_ += Cost(it->second, now);
    open_.erase(it);
  }
  double TotalCost(SimTime now) const {
    double total = closed_;
    for (const auto& [id, stream] : open_) {
      total += Cost(stream, now);
    }
    return total;
  }

 private:
  struct Stream {
    SimTime started;
    double rate;
    const PriceTrace* trace;
  };
  static double Cost(const Stream& stream, SimTime until) {
    const double hours = (until - stream.started).hours();
    if (hours <= 0.0) {
      return 0.0;
    }
    if (stream.trace != nullptr) {
      return stream.trace->MeanPrice(stream.started, until) * hours;
    }
    return stream.rate * hours;
  }

  std::unordered_map<InstanceId, Stream> open_;
  double closed_ = 0.0;
};

// More than twice the queue's 256 entries of interleaved fixed and metered
// streams on three traces, zero-length ones included, stopped in random
// order: TotalCost must equal the eager meter's bitwise, mid-queue and
// right after each flush.
TEST(BillingMeterTest, DeferredCostsMatchEagerMeter) {
  std::vector<PriceTrace> traces;
  for (const InstanceType type : {InstanceType::kM3Medium,
                                  InstanceType::kM3Large,
                                  InstanceType::kM3Xlarge}) {
    traces.push_back(GenerateMarketTrace(MarketKey{type, AvailabilityZone{1}},
                                         SimDuration::Days(20),
                                         /*master_seed=*/3));
  }
  BillingMeter meter;
  EagerMeter eager;
  std::mt19937_64 rng(20261020);
  const int64_t horizon_us = SimDuration::Days(20).micros();
  const auto uniform = [&rng](int64_t lo, int64_t hi) {
    return lo +
           static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  std::vector<InstanceId> open;
  std::vector<SimTime> started;  // by id value
  int64_t next_id = 1;
  int stops = 0;
  int probes = 0;
  int mismatches = 0;
  const auto probe = [&](SimTime now, const char* when) {
    ++probes;
    const double got = meter.TotalCost(now);
    const double want = eager.TotalCost(now);
    if (std::bit_cast<uint64_t>(got) != std::bit_cast<uint64_t>(want) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << when << " after " << stops << " stops: TotalCost "
                    << got << ", eager " << want;
    }
  };
  while (stops < 700) {
    // Start one to three streams, then stop one at random.
    const int64_t starts = uniform(1, 3);
    for (int64_t k = 0; k < starts; ++k) {
      const InstanceId id(next_id++);
      const SimTime at = SimTime::FromMicros(uniform(0, horizon_us));
      started.resize(static_cast<size_t>(id.value() + 1));
      started[static_cast<size_t>(id.value())] = at;
      if (rng() % 3 == 0) {
        const double rate = static_cast<double>(uniform(1, 2000)) / 1000.0;
        meter.StartFixed(id, at, rate);
        eager.StartFixed(id, at, rate);
      } else {
        const PriceTrace* trace = &traces[rng() % traces.size()];
        meter.StartMetered(id, at, trace);
        eager.StartMetered(id, at, trace);
      }
      open.push_back(id);
    }
    const size_t pick = rng() % open.size();
    const InstanceId id = open[pick];
    open[pick] = open.back();
    open.pop_back();
    const SimTime from = started[static_cast<size_t>(id.value())];
    // Zero-length, backwards and ordinary streams.
    const int64_t kind = uniform(0, 9);
    const SimTime until =
        kind == 0   ? from
        : kind == 1 ? from - SimDuration::Micros(uniform(1, 1000000))
                    : from + SimDuration::Micros(uniform(1, horizon_us / 2));
    meter.Stop(id, until);
    eager.Stop(id, until);
    ++stops;
    const SimTime now = SimTime::FromMicros(horizon_us + uniform(0, 1000));
    if (stops % 256 == 0) {
      probe(now, "after a flush");
    } else if (stops % 37 == 0) {
      probe(now, "mid-queue");
    }
  }
  meter.Stop(InstanceId(next_id + 5), SimTime());  // unknown: a no-op
  eager.Stop(InstanceId(next_id + 5), SimTime());
  probe(SimTime::FromMicros(2 * horizon_us), "at the end");
  EXPECT_GT(probes, 20);
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace spotcheck
