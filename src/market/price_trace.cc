#include "src/market/price_trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "src/common/csv.h"

namespace spotcheck {
namespace {

// The whole field must be one finite number.
bool ParseFinite(const std::string& field, double* out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

}  // namespace

PriceTrace::PriceTrace(std::vector<PricePoint> points) {
  times_us_.reserve(points.size());
  prices_.reserve(points.size());
  for (const PricePoint& p : points) {
    Append(p.time, p.price);
  }
}

size_t PriceTrace::UpperBound(int64_t t_us) const {
  return static_cast<size_t>(
      std::upper_bound(times_us_.begin(), times_us_.end(), t_us) -
      times_us_.begin());
}

double PriceTrace::PriceAt(SimTime t) const {
  if (empty()) {
    return 0.0;
  }
  // First point with time > t; predecessor holds the in-effect price.
  const size_t ub = UpperBound(t.micros());
  return prices_[ub == 0 ? 0 : ub - 1];
}

double PriceTrace::Cursor::PriceAt(SimTime t) {
  if (has_query_ && t < last_query_) {
    ++backward_seeks_;
  }
  has_query_ = true;
  last_query_ = t;
  const size_t n = trace_->times_us_.size();
  if (n == 0) {
    return 0.0;
  }
  const int64_t t_us = t.micros();
  const int64_t* times = trace_->times_us_.data();
  size_t i = index_;
  if (i >= n || t_us < times[i]) {
    // Backwards jump (or trace replaced under us): re-locate by binary
    // search, keeping the invariant that point index_ is the last change
    // point at or before t (index 0 also covers "before the first point").
    const size_t ub = trace_->UpperBound(t_us);
    index_ = ub == 0 ? 0 : ub - 1;
    return trace_->prices_[index_];
  }
  // Forward: advance over the packed time column four comparisons at a
  // time. The comparisons are branch-free (summed flags), so the common
  // "advance 0 or 1 points" query costs one vectorizable round; under the
  // monotone sweep pattern every point is visited once, so the walk stays
  // amortized O(1).
  while (i + 4 < n) {
    const int step = static_cast<int>(times[i + 1] <= t_us) +
                     static_cast<int>(times[i + 2] <= t_us) +
                     static_cast<int>(times[i + 3] <= t_us) +
                     static_cast<int>(times[i + 4] <= t_us);
    i += static_cast<size_t>(step);
    if (step < 4) {
      break;
    }
  }
  while (i + 1 < n && times[i + 1] <= t_us) {
    ++i;
  }
  index_ = i;
  return trace_->prices_[i];
}

void PriceTrace::Append(SimTime t, double price) {
  if (!times_us_.empty() && t.micros() < times_us_.back()) {
    return;  // Ignore out-of-order appends.
  }
  const size_t index = times_us_.size();
  times_us_.push_back(t.micros());
  prices_.push_back(price);
  const size_t block = index >> kBlockLog2;
  if (block == block_min_.size()) {
    block_min_.push_back(price);
    block_max_.push_back(price);
  } else {
    block_min_[block] = std::min(block_min_[block], price);
    block_max_[block] = std::max(block_max_[block], price);
  }
}

double PriceTrace::MeanPrice(SimTime from, SimTime to) const {
  if (empty() || to <= from) {
    return 0.0;
  }
  const size_t n = times_us_.size();
  const int64_t* times = times_us_.data();
  const double* prices = prices_.data();
  const int64_t to_us = to.micros();
  // i: first change point after the sweep position; j: governing point.
  size_t i = UpperBound(from.micros());
  size_t j = i == 0 ? 0 : i - 1;
  int64_t cursor_us = from.micros();
  double weighted = 0.0;
  // Tight segment walk: one multiply and one add per change point, exactly
  // the terms (and order) of the original cursor-based sweep.
  while (cursor_us < to_us) {
    const int64_t next_us = (i < n && times[i] < to_us) ? times[i] : to_us;
    weighted +=
        prices[j] * SimDuration::Micros(next_us - cursor_us).seconds();
    cursor_us = next_us;
    if (i < n && times[i] <= cursor_us) {
      j = i;
      ++i;
    }
  }
  return weighted / (to - from).seconds();
}

double PriceTrace::FractionAtOrBelow(double bid, SimTime from, SimTime to) const {
  if (empty() || to <= from) {
    return 0.0;
  }
  const size_t n = times_us_.size();
  const int64_t* times = times_us_.data();
  const double* prices = prices_.data();
  const int64_t to_us = to.micros();
  size_t i = UpperBound(from.micros());
  size_t j = i == 0 ? 0 : i - 1;
  int64_t cursor_us = from.micros();
  double covered = 0.0;
  while (cursor_us < to_us) {
    // Block skip: while the governing point opens a summary block whose
    // minimum price exceeds the bid, none of its 64 segments can
    // contribute, so jump the sweep to the block boundary. Skipped
    // segments added nothing in the scalar walk, so the accumulated sum
    // is bit-identical.
    while (j + 1 == i && (j & (kBlockSize - 1)) == 0 &&
           block_min_[j >> kBlockLog2] > bid) {
      const size_t next_block = j + kBlockSize;
      if (next_block >= n || times[next_block] >= to_us) {
        // The remainder of the query window sits under this (or a
        // truncated final) block: nothing more can contribute.
        return covered / (to - from).seconds();
      }
      cursor_us = times[next_block];
      j = next_block;
      i = next_block + 1;
    }
    const int64_t next_us = (i < n && times[i] < to_us) ? times[i] : to_us;
    if (prices[j] <= bid) {
      covered += SimDuration::Micros(next_us - cursor_us).seconds();
    }
    cursor_us = next_us;
    if (i < n && times[i] <= cursor_us) {
      j = i;
      ++i;
    }
  }
  return covered / (to - from).seconds();
}

std::vector<double> PriceTrace::SampleGrid(SimTime from, SimTime to,
                                           SimDuration step) const {
  std::vector<double> samples;
  Cursor cursor(this);
  for (SimTime t = from; t < to; t += step) {
    samples.push_back(cursor.PriceAt(t));
  }
  return samples;
}

PriceTrace::JumpSeries PriceTrace::HourlyJumps(SimTime from, SimTime to) const {
  JumpSeries jumps;
  Cursor cursor(this);
  double prev = cursor.PriceAt(from);
  for (SimTime t = from + SimDuration::Hours(1); t <= to; t += SimDuration::Hours(1)) {
    const double cur = cursor.PriceAt(t);
    if (prev > 0.0 && cur != prev) {
      const double pct = std::abs(cur / prev - 1.0) * 100.0;
      if (cur > prev) {
        jumps.increasing.push_back(pct);
      } else {
        jumps.decreasing.push_back(pct);
      }
    }
    prev = cur;
  }
  return jumps;
}

std::string PriceTrace::ToCsv() const {
  CsvWriter writer;
  for (size_t i = 0; i < times_us_.size(); ++i) {
    writer.AddRow({std::to_string(time(i).seconds()),
                   std::to_string(prices_[i])});
  }
  return writer.ToString();
}

PriceTrace PriceTrace::FromCsv(const std::string& text) {
  const CsvReader reader = CsvReader::FromString(text, /*has_header=*/false);
  std::vector<PricePoint> points;
  points.reserve(reader.rows().size());
  // 2^63: the first microsecond count SimTime cannot hold.
  constexpr double kMicrosLimit =
      static_cast<double>(std::numeric_limits<int64_t>::max());
  for (const auto& row : reader.rows()) {
    double seconds = 0.0;
    double price = 0.0;
    if (row.size() != 2 || !ParseFinite(row[0], &seconds) ||
        !ParseFinite(row[1], &price) || seconds < 0.0 ||
        seconds * 1e6 >= kMicrosLimit) {
      return PriceTrace();
    }
    points.push_back({SimTime::FromSeconds(seconds), price});
  }
  std::sort(points.begin(), points.end(),
            [](const PricePoint& a, const PricePoint& b) { return a.time < b.time; });
  return PriceTrace(std::move(points));
}

}  // namespace spotcheck
