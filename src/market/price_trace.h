// Piecewise-constant spot-price traces.
//
// A PriceTrace is a sorted sequence of (time, $/hr) change points; the price
// holds between change points. Traces are either synthesized by a
// SpotPriceProcess or loaded from CSV (timestamp_seconds,price per row, as
// exported from EC2 spot price history).
//
// Storage is structure-of-arrays: one contiguous int64 column of change
// times (microseconds) and one double column of prices. The scan loops the
// simulator leans on -- monotone cursor advance, time-weighted means,
// threshold coverage -- walk a single packed column, so they autovectorize
// and touch half the cache lines of an array-of-structs walk. Threshold
// queries additionally skip 64-point blocks via a per-block min/max summary
// maintained on Append. All fast paths preserve the exact floating-point
// accumulation order of the scalar walk, so results are bit-identical.

#ifndef SRC_MARKET_PRICE_TRACE_H_
#define SRC_MARKET_PRICE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace spotcheck {

struct PricePoint {
  SimTime time;
  double price;  // $/hr
};

class PriceTrace {
 public:
  PriceTrace() = default;
  // Points must be time-sorted; the first point defines the trace start.
  explicit PriceTrace(std::vector<PricePoint> points);

  bool empty() const { return times_us_.empty(); }
  size_t size() const { return times_us_.size(); }

  // Column access (structure-of-arrays), plus per-point accessors.
  const std::vector<int64_t>& times_us() const { return times_us_; }
  const std::vector<double>& prices() const { return prices_; }
  SimTime time(size_t i) const { return SimTime::FromMicros(times_us_[i]); }
  double price(size_t i) const { return prices_[i]; }
  PricePoint point(size_t i) const { return {time(i), prices_[i]}; }

  // Price in effect at time t: the last change point at or before t. Before
  // the first point, returns the first price; on an empty trace, returns 0.
  double PriceAt(SimTime t) const;

  // Amortized-O(1) lookup for the forward-in-time access pattern the
  // simulator exhibits (prices queried at non-decreasing times). The cursor
  // remembers the change point in effect at the last query and advances
  // linearly (four comparisons per step, branch-free, over the packed time
  // column); a query earlier than the previous one falls back to binary
  // search. The referenced trace must outlive the cursor and must not be
  // appended to while the cursor is in use.
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(const PriceTrace* trace) : trace_(trace) {}

    double PriceAt(SimTime t);

    // How many queries arrived earlier than their predecessor. Backward
    // seeks are correct (served by the binary-search fallback) but defeat
    // the amortized-O(1) walk; monotone users -- SpotMarket's now-cursor,
    // MeanPrice's sweep -- should keep this at zero, so a nonzero value
    // flags a non-monotone access pattern worth auditing.
    int64_t backward_seeks() const { return backward_seeks_; }

   private:
    const PriceTrace* trace_ = nullptr;
    size_t index_ = 0;  // last change point with time <= previous query
    bool has_query_ = false;
    SimTime last_query_;
    int64_t backward_seeks_ = 0;
  };

  // Appends a change point; must not go backwards in time.
  void Append(SimTime t, double price);

  // Time-weighted mean price over [from, to).
  double MeanPrice(SimTime from, SimTime to) const;

  // Fraction of [from, to) during which price <= bid. This is the
  // "availability" a spot instance with that bid would have seen (Fig. 6(a)).
  double FractionAtOrBelow(double bid, SimTime from, SimTime to) const;

  // Price sampled on a regular grid, for correlation analysis (Fig. 6(c)/(d)).
  std::vector<double> SampleGrid(SimTime from, SimTime to, SimDuration step) const;

  // Percentage magnitudes of hour-over-hour price changes, split by sign
  // (Fig. 6(b)). A change from p0 to p1 contributes |p1/p0 - 1| * 100.
  struct JumpSeries {
    std::vector<double> increasing;
    std::vector<double> decreasing;
  };
  JumpSeries HourlyJumps(SimTime from, SimTime to) const;

  // CSV round-trip; format: "seconds,price" per line, no header. FromCsv
  // returns an empty trace unless every row is exactly two finite numbers
  // with a non-negative time that SimTime can represent.
  std::string ToCsv() const;
  static PriceTrace FromCsv(const std::string& text);

 private:
  // Points per min/max summary block; power of two so index math is shifts.
  static constexpr size_t kBlockLog2 = 6;
  static constexpr size_t kBlockSize = size_t{1} << kBlockLog2;

  // First index with times_us_[i] > t_us (upper bound on the time column).
  size_t UpperBound(int64_t t_us) const;

  std::vector<int64_t> times_us_;
  std::vector<double> prices_;
  // Per-block price min/max over prices_[b*64 .. b*64+63] (last block
  // partial); lets threshold scans skip blocks that cannot match.
  std::vector<double> block_min_;
  std::vector<double> block_max_;
};

}  // namespace spotcheck

#endif  // SRC_MARKET_PRICE_TRACE_H_
