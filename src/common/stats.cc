#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace spotcheck {

void StreamingStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StreamingStats::Merge(const StreamingStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * n2 / (n1 + n2);
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

void EmpiricalDistribution::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void EmpiricalDistribution::AddAll(std::span<const double> xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void EmpiricalDistribution::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalDistribution::Quantile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double EmpiricalDistribution::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double EmpiricalDistribution::CdfAt(double x) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<EmpiricalDistribution::CdfPoint> EmpiricalDistribution::CdfSeries(
    size_t points) const {
  std::vector<CdfPoint> out;
  if (samples_.empty() || points == 0) {
    return out;
  }
  EnsureSorted();
  const double lo = samples_.front();
  const double hi = samples_.back();
  out.reserve(points);
  for (size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1 > 0 ? points - 1 : 1);
    out.push_back({x, CdfAt(x)});
  }
  return out;
}

double PearsonCorrelation(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) {
    return 0.0;
  }
  const double n = static_cast<double>(xs.size());
  double mx = 0.0;
  double my = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) {
    return 0.0;
  }
  return sxy / std::sqrt(sxx * syy);
}

std::vector<std::vector<double>> CorrelationMatrix(
    const std::vector<std::vector<double>>& series) {
  const size_t n = series.size();
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    m[i][i] = 1.0;
    for (size_t j = i + 1; j < n; ++j) {
      const double r = PearsonCorrelation(series[i], series[j]);
      m[i][j] = r;
      m[j][i] = r;
    }
  }
  return m;
}

}  // namespace spotcheck
