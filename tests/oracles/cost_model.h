// Analytic cost and availability model (Section 4.4).
//
// For a nested VM with revocation probability p = P(spot > bid):
//
//   E(c) = (1 - p) * E(c_spot) + p * c_od           (+ amortized backup cost)
//
// and, with the market price changing every T time units, a revocation rate
// R = p / T, each revocation charging D seconds of migration downtime:
//
//   unavailability = D * p / T
//
// These closed forms let policies be compared without running a full
// simulation. They are a test oracle: no shipped binary runs them, and the
// tests check the simulation and the paper's numbers against them.

#ifndef TESTS_ORACLES_COST_MODEL_H_
#define TESTS_ORACLES_COST_MODEL_H_

#include "src/common/time.h"
#include "src/market/price_trace.h"

namespace spotcheck {

struct CostModelInputs {
  double bid = 0.07;                  // $/hr
  double on_demand_price = 0.07;      // $/hr
  double mean_spot_price_below_bid = 0.008;  // E[c_spot | c_spot <= bid]
  double revocation_probability = 0.01;      // p = P(c_spot > bid)
  double backup_cost_per_vm = 0.007;  // amortized $/hr (0 for live-only)
};

// Expected $/hr for one nested VM.
double ExpectedHourlyCost(const CostModelInputs& inputs);

struct AvailabilityModelInputs {
  double revocation_probability = 0.01;     // p
  SimDuration price_change_period = SimDuration::Hours(1);  // T
  SimDuration downtime_per_migration = SimDuration::Seconds(23);  // D
};

// Expected fraction of time unavailable, in [0, 1].
double ExpectedUnavailability(const AvailabilityModelInputs& inputs);

// Derives the model inputs from a price trace over [from, to):
//   p  = fraction of time price > bid,
//   E[c_spot | below bid] = time-weighted mean of the price when at/below bid,
//   T  = (to - from) / number of upward bid crossings.
struct TraceDerivedInputs {
  double revocation_probability = 0.0;
  double mean_spot_price_below_bid = 0.0;
  SimDuration mean_time_between_revocations = SimDuration::Zero();
  int revocations = 0;
};
TraceDerivedInputs DeriveFromTrace(const PriceTrace& trace, double bid,
                                   SimTime from, SimTime to);

}  // namespace spotcheck

#endif  // TESTS_ORACLES_COST_MODEL_H_
