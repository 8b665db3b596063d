// Descriptive statistics used by the report module: empirical CDFs (the
// paper's Figures 2, 3, 5, 6, 7, 13 are all CDFs), means, percentiles and
// integer histograms.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace malnet::util {

/// Empirical cumulative distribution over double samples.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::span<const double> samples);

  void add(double x);

  /// Number of samples; independent of whether the lazy sort has run.
  [[nodiscard]] std::size_t count() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] double mean() const;
  /// Smallest/largest sample. NaN on an empty CDF — degraded/chaos studies
  /// legitimately produce empty datasets, and figure emitters must render
  /// a "no data" row rather than crash.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// P(X <= x). 0 for empty CDFs.
  [[nodiscard]] double at(double x) const;

  /// Smallest sample v such that P(X <= v) >= q. Throws std::invalid_argument
  /// for q outside [0,1]; NaN on an empty CDF (see min()/max()).
  [[nodiscard]] double quantile(double q) const;

  /// Fraction of samples exactly equal to x (useful for "80% have lifespan
  /// of exactly one day" style statements on integer-valued data).
  [[nodiscard]] double mass_at(double x) const;

  /// Renders "value  cumulative%" rows at each distinct sample value —
  /// the exact series a paper CDF figure plots.
  [[nodiscard]] std::vector<std::pair<double, double>> steps() const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> data_;
  mutable bool sorted_ = true;
};

/// Integer-keyed frequency counter with convenience accessors.
class Histogram {
 public:
  void add(std::int64_t key, std::uint64_t weight = 1);
  [[nodiscard]] std::uint64_t at(std::int64_t key) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Most frequent key (smallest wins ties); 0 on an empty histogram.
  [[nodiscard]] std::int64_t mode() const;

 private:
  std::map<std::int64_t, std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

/// Mean of a sample span; 0 for empty input.
[[nodiscard]] double mean_of(std::span<const double> xs);

/// Pearson correlation of two equal-length series; 0 if degenerate.
[[nodiscard]] double pearson(std::span<const double> xs, std::span<const double> ys);

}  // namespace malnet::util
