// Deterministic random number generation.
//
// Everything in this project is seeded: the same top-level seed regenerates
// every dataset, table and figure bit-identically. We use PCG32 (small, fast,
// excellent statistical quality) seeded through SplitMix64 so correlated
// sub-streams can be derived from (seed, stream-id) pairs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

namespace malnet::util {

/// SplitMix64 step: used both to whiten seeds and to derive sub-seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// Stable 64-bit FNV-1a hash of a string; used to derive named sub-streams.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s);

/// The weights 1/k^s (k = 1..n) of a Zipf draw and their total, computed
/// once. Callers that draw repeatedly over the same (n, s) keep one table.
class ZipfTable {
 public:
  /// Requires n > 0 and s > 0.
  ZipfTable(std::uint64_t n, double s);

  [[nodiscard]] std::uint64_t n() const { return weights_.size(); }

 private:
  friend class Rng;
  std::vector<double> weights_;
  double total_ = 0.0;
};

/// PCG32 generator (O'Neill). Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint32_t;

  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xFFFFFFFFu; }
  result_type operator()();

  /// Derives an independent child generator; `name` labels the sub-stream so
  /// that adding a new consumer never perturbs existing ones.
  [[nodiscard]] Rng fork(std::string_view name);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p);

  /// Geometric distribution: number of failures before first success,
  /// success probability p in (0, 1]. Mean = (1-p)/p.
  [[nodiscard]] std::uint64_t geometric(double p);

  /// Exponential with rate lambda (> 0). Mean = 1/lambda.
  [[nodiscard]] double exponential(double lambda);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Requires a non-empty span with a positive total weight.
  [[nodiscard]] std::size_t weighted(std::span<const double> weights);
  [[nodiscard]] std::size_t weighted(std::initializer_list<double> weights);

  /// Picks a uniformly random element of a non-empty vector.
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(uniform(0, v.size() - 1))];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(uniform(0, i - 1))]);
    }
  }

  /// Zipf-like heavy-tailed integer in [1, n] with exponent s (s > 0).
  /// Used for "few C2s serve many binaries" style distributions.
  [[nodiscard]] std::uint64_t zipf(std::uint64_t n, double s);
  /// The same draw over a precomputed table: bit-identical to zipf(n, s).
  [[nodiscard]] std::uint64_t zipf(const ZipfTable& table);

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

}  // namespace malnet::util
