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

// Windows whose whole segments MeanPrices adds at once.
constexpr size_t kLanes = 8;

// sum[l] += from[l][s] for s = 0 .. steps - 1 in order, for each of the
// eight lanes: eight independent add chains. Named locals keep the chains
// in registers at every optimization level.
void AddLanes(const double* const* from, size_t steps, double* sum) {
  static_assert(kLanes == 8);
  const double* p0 = from[0];
  const double* p1 = from[1];
  const double* p2 = from[2];
  const double* p3 = from[3];
  const double* p4 = from[4];
  const double* p5 = from[5];
  const double* p6 = from[6];
  const double* p7 = from[7];
  double s0 = sum[0], s1 = sum[1], s2 = sum[2], s3 = sum[3];
  double s4 = sum[4], s5 = sum[5], s6 = sum[6], s7 = sum[7];
  for (size_t s = 0; s < steps; ++s) {
    s0 += p0[s];
    s1 += p1[s];
    s2 += p2[s];
    s3 += p3[s];
    s4 += p4[s];
    s5 += p5[s];
    s6 += p6[s];
    s7 += p7[s];
  }
  sum[0] = s0;
  sum[1] = s1;
  sum[2] = s2;
  sum[3] = s3;
  sum[4] = s4;
  sum[5] = s5;
  sum[6] = s6;
  sum[7] = s7;
}

}  // namespace

PriceTrace::PriceTrace(std::vector<PricePoint> points) {
  times_us_.reserve(points.size());
  prices_.reserve(points.size());
  segment_cost_.reserve(points.size());
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
  if (index > 0) {
    segment_cost_.push_back(
        prices_.back() *
        SimDuration::Micros(t.micros() - times_us_.back()).seconds());
  }
  times_us_.push_back(t.micros());
  prices_.push_back(price);
  if (levels_.empty()) {
    levels_.emplace_back();
  }
  Summary& blocks = levels_[0];
  const size_t block = index >> kBlockLog2;
  if (block == blocks.min.size()) {
    blocks.min.push_back(price);
    blocks.max.push_back(price);
  } else {
    blocks.min[block] = std::min(blocks.min[block], price);
    blocks.max[block] = std::max(blocks.max[block], price);
  }
  if (((index + 1) & (kBlockSize - 1)) != 0) {
    return;
  }
  // The block is complete. Each level whose next node it completes gains
  // that node; `done` counts the complete nodes one level down.
  for (size_t level = 1, done = block + 1; done % kFanout == 0;
       ++level, done /= kFanout) {
    if (level == levels_.size()) {
      levels_.emplace_back();
    }
    const Summary& below = levels_[level - 1];
    double lo = below.min[done - kFanout];
    double hi = below.max[done - kFanout];
    for (size_t k = done - kFanout + 1; k < done; ++k) {
      lo = std::min(lo, below.min[k]);
      hi = std::max(hi, below.max[k]);
    }
    levels_[level].min.push_back(lo);
    levels_[level].max.push_back(hi);
  }
}

double PriceTrace::MeanPrice(SimTime from, SimTime to) const {
  const MeanPriceQuery query{this, from, to};
  double mean = 0.0;
  MeanPrices({&query, 1}, {&mean, 1});
  return mean;
}

void PriceTrace::MeanPrices(std::span<const MeanPriceQuery> queries,
                            std::span<double> out) {
  // Each window's terms, in the order of a walk over every segment: the
  // partial first segment, the whole segments (precomputed), the partial
  // last one, summed from 0.0 as the walk's sum was, so even a -0.0 first
  // term rounds the same way. A window with whole segments takes a lane;
  // the lanes add their next entries in lockstep, so kLanes add chains are
  // in flight at once.
  const double* next_cost[kLanes] = {};  // the lane's next entry to add
  size_t left[kLanes] = {};              // whole-segment entries still to add
  double sum[kLanes] = {};
  double tail[kLanes] = {};  // the partial last segment's term
  size_t slot[kLanes] = {};  // the lane's query
  size_t lanes = 0;          // busy lanes, packed at the front
  size_t next = 0;           // the next query to start
  // Starts queries until one needs a lane (true) or none is left; the
  // others finish here.
  const auto start = [&](size_t lane) {
    while (next < queries.size()) {
      const size_t q = next++;
      const PriceTrace& trace = *queries[q].trace;
      const SimTime from = queries[q].from;
      const SimTime to = queries[q].to;
      if (trace.empty() || to <= from) {
        out[q] = 0.0;
        continue;
      }
      const int64_t* times = trace.times_us_.data();
      const double* prices = trace.prices_.data();
      const size_t n = trace.times_us_.size();
      const int64_t from_us = from.micros();
      const int64_t to_us = to.micros();
      // i: first change point after `from`; j: the point governing `from`.
      const size_t i = trace.UpperBound(from_us);
      const size_t j = i == 0 ? 0 : i - 1;
      double weighted = 0.0;
      if (i == n || times[i] >= to_us) {
        weighted += prices[j] * SimDuration::Micros(to_us - from_us).seconds();
        out[q] = weighted / (to - from).seconds();
        continue;
      }
      weighted += prices[j] * SimDuration::Micros(times[i] - from_us).seconds();
      // The last point before `to` governs the partial last segment.
      const size_t last = static_cast<size_t>(
          std::lower_bound(times + i, times + n, to_us) - times) - 1;
      const double last_term =
          prices[last] * SimDuration::Micros(to_us - times[last]).seconds();
      if (last == i) {
        weighted += last_term;
        out[q] = weighted / (to - from).seconds();
        continue;
      }
      next_cost[lane] = trace.segment_cost_.data() + i;
      left[lane] = last - i;
      sum[lane] = weighted;
      tail[lane] = last_term;
      slot[lane] = q;
      return true;
    }
    return false;
  };
  while (lanes < kLanes && start(lanes)) {
    ++lanes;
  }
  while (lanes > 0) {
    size_t steps = left[0];
    for (size_t l = 1; l < lanes; ++l) {
      steps = std::min(steps, left[l]);
    }
    if (lanes == 1) {
      // A lone window (a batch of one, or a batch's last) adds on one
      // chain.
      double lone = sum[0];
      for (size_t s = 0; s < steps; ++s) {
        lone += next_cost[0][s];
      }
      sum[0] = lone;
    } else {
      // Idle lanes shadow lane 0, so every lane reads valid entries; their
      // sums are never read.
      for (size_t l = lanes; l < kLanes; ++l) {
        next_cost[l] = next_cost[0];
      }
      AddLanes(next_cost, steps, sum);
    }
    for (size_t l = 0; l < lanes; ++l) {
      next_cost[l] += steps;
      left[l] -= steps;
    }
    // Finish the lanes that are done; the next query takes each one's
    // place, or the last busy lane moves into it.
    for (size_t l = 0; l < lanes;) {
      if (left[l] > 0) {
        ++l;
        continue;
      }
      const MeanPriceQuery& query = queries[slot[l]];
      sum[l] += tail[l];
      out[slot[l]] = sum[l] / (query.to - query.from).seconds();
      if (start(l)) {
        ++l;
        continue;
      }
      --lanes;
      next_cost[l] = next_cost[lanes];
      left[l] = left[lanes];
      sum[l] = sum[lanes];
      tail[l] = tail[lanes];
      slot[l] = slot[lanes];
    }
  }
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
  const double* block_min = levels_[0].min.data();
  while (cursor_us < to_us) {
    // Block skip: while the governing point opens a summary block whose
    // minimum price exceeds the bid, none of its 64 segments can
    // contribute, so jump the sweep to the block boundary. Skipped
    // segments added nothing in the scalar walk, so the accumulated sum
    // is bit-identical.
    while (j + 1 == i && (j & (kBlockSize - 1)) == 0 &&
           block_min[j >> kBlockLog2] > bid) {
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

size_t PriceTrace::FirstOutside(size_t from, double above,
                                double at_or_below) const {
  const size_t n = prices_.size();
  if (!(above < at_or_below)) {
    return std::min(from, n);
  }
  const auto outside = [above, at_or_below](double price) {
    return !(above < price && price <= at_or_below);
  };
  size_t i = from;
  for (; i < n && (i & (kBlockSize - 1)) != 0; ++i) {
    if (outside(prices_[i])) {
      return i;
    }
  }
  // i starts a node of `level`: climb while i also starts a complete node
  // one level up, then skip a quiet node whole, or descend to the first
  // child of one that is not quiet (or not complete yet). A node that is
  // not quiet holds a point outside the band, so the seek returns inside
  // it and never climbs back into it.
  size_t level = 0;
  while (i < n) {
    while (level + 1 < levels_.size() &&
           (i & ((size_t{1} << NodeLog2(level + 1)) - 1)) == 0 &&
           (i >> NodeLog2(level + 1)) < levels_[level + 1].min.size()) {
      ++level;
    }
    for (;;) {
      const Summary& nodes = levels_[level];
      const size_t node = i >> NodeLog2(level);
      if (node < nodes.min.size() && above < nodes.min[node] &&
          nodes.max[node] <= at_or_below) {
        break;
      }
      if (level == 0) {
        for (; i < n; ++i) {
          if (outside(prices_[i])) {
            return i;
          }
        }
        return n;
      }
      --level;
    }
    i += size_t{1} << NodeLog2(level);
  }
  return n;
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
