// Statistics utilities used by market analytics, the evaluation harness, and
// tests: streaming moments (Welford), empirical CDFs / quantiles, fixed-bin
// histograms, and Pearson correlation.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace spotcheck {

// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class StreamingStats {
 public:
  void Add(double x);
  void Merge(const StreamingStats& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Stores all samples; answers quantile and CDF queries exactly. Suitable for
// the sample counts in this project (up to a few million doubles).
class EmpiricalDistribution {
 public:
  void Add(double x);
  void AddAll(std::span<const double> xs);

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // q in [0, 1]; linear interpolation between order statistics.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Min() const { return Quantile(0.0); }
  double Max() const { return Quantile(1.0); }
  double Mean() const;

  // Fraction of samples <= x.
  double CdfAt(double x) const;

  // Evenly spaced (x, F(x)) points for printing a CDF series.
  struct CdfPoint {
    double x;
    double cdf;
  };
  std::vector<CdfPoint> CdfSeries(size_t points) const;

  std::span<const double> samples() const { return samples_; }

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Pearson correlation coefficient of two equal-length series.
// Returns 0 when either series has zero variance or lengths mismatch.
double PearsonCorrelation(std::span<const double> xs, std::span<const double> ys);

// Pairwise correlation matrix of `series`; result[i][j] in [-1, 1].
std::vector<std::vector<double>> CorrelationMatrix(
    const std::vector<std::vector<double>>& series);

}  // namespace spotcheck

#endif  // SRC_COMMON_STATS_H_
