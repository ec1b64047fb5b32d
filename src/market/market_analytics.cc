#include "src/market/market_analytics.h"

#include <algorithm>
#include <cmath>

namespace spotcheck {

std::vector<AvailabilityPoint> AvailabilityVsBid(const PriceTrace& trace,
                                                 double on_demand_price,
                                                 SimTime from, SimTime to,
                                                 int points) {
  std::vector<AvailabilityPoint> curve;
  curve.reserve(static_cast<size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double ratio =
        points > 1 ? static_cast<double>(i) / static_cast<double>(points - 1) : 1.0;
    curve.push_back(
        {ratio, trace.FractionAtOrBelow(ratio * on_demand_price, from, to)});
  }
  return curve;
}

double RevocationProbability(const PriceTrace& trace, double bid, SimTime from,
                             SimTime to) {
  return 1.0 - trace.FractionAtOrBelow(bid, from, to);
}

int CountBidCrossings(const PriceTrace& trace, double bid, SimTime from,
                      SimTime to) {
  int crossings = 0;
  bool above = trace.PriceAt(from) > bid;
  // The points in [from, to): binary searches on the time column, so a
  // short window costs O(log n) plus its own points.
  const std::vector<int64_t>& times = trace.times_us();
  const auto first =
      std::lower_bound(times.begin(), times.end(), from.micros());
  const auto last = std::lower_bound(first, times.end(), to.micros());
  for (auto it = first; it != last; ++it) {
    const bool now_above =
        trace.price(static_cast<size_t>(it - times.begin())) > bid;
    if (now_above && !above) {
      ++crossings;
    }
    above = now_above;
  }
  return crossings;
}

JumpDistributions ComputeJumpDistributions(const PriceTrace& trace, SimTime from,
                                           SimTime to) {
  const PriceTrace::JumpSeries jumps = trace.HourlyJumps(from, to);
  JumpDistributions dists;
  dists.increasing.AddAll(jumps.increasing);
  dists.decreasing.AddAll(jumps.decreasing);
  return dists;
}

std::vector<std::vector<double>> PriceCorrelationMatrix(
    const std::vector<const PriceTrace*>& traces, SimTime from, SimTime to,
    SimDuration step) {
  std::vector<std::vector<double>> series;
  series.reserve(traces.size());
  for (const PriceTrace* trace : traces) {
    series.push_back(trace->SampleGrid(from, to, step));
  }
  return CorrelationMatrix(series);
}

double FindKneeRatio(const PriceTrace& trace, double on_demand_price,
                     SimTime from, SimTime to, double epsilon, double max_ratio,
                     int steps) {
  if (steps < 2 || max_ratio <= 0.0) {
    return max_ratio;
  }
  const double plateau =
      trace.FractionAtOrBelow(max_ratio * on_demand_price, from, to);
  for (int i = 0; i <= steps; ++i) {
    const double ratio = max_ratio * static_cast<double>(i) / steps;
    if (trace.FractionAtOrBelow(ratio * on_demand_price, from, to) >=
        plateau - epsilon) {
      return ratio;
    }
  }
  return max_ratio;
}

double MeanAbsOffDiagonal(const std::vector<std::vector<double>>& matrix) {
  double sum = 0.0;
  int64_t n = 0;
  for (size_t i = 0; i < matrix.size(); ++i) {
    for (size_t j = 0; j < matrix.size(); ++j) {
      if (i != j) {
        sum += std::abs(matrix[i][j]);
        ++n;
      }
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace spotcheck
