#include "util/rng.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace malnet::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t sm = seed;
  inc_ = (splitmix64(sm) ^ stream) | 1ULL;
  state_ = splitmix64(sm);
  (*this)();  // advance past the (correlated) initial state
}

Rng::result_type Rng::operator()() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

Rng Rng::fork(std::string_view name) {
  const std::uint64_t child_seed =
      (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  return Rng(child_seed, fnv1a64(name));
}

std::uint64_t Rng::uniform(std::uint64_t lo, std::uint64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  const std::uint64_t span = hi - lo + 1;  // span==0 means full 64-bit range
  std::uint64_t r = (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  if (span != 0) r %= span;
  return lo + r;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  return lo + static_cast<std::int64_t>(
                  uniform(0, static_cast<std::uint64_t>(hi - lo)));
}

double Rng::uniform01() {
  // 53 random bits -> double in [0,1).
  const std::uint64_t r = (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  return static_cast<double>(r >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::uint64_t Rng::geometric(double p) {
  if (p <= 0.0 || p > 1.0) throw std::invalid_argument("Rng::geometric: p out of (0,1]");
  if (p == 1.0) return 0;
  const double u = uniform01();
  return static_cast<std::uint64_t>(std::floor(std::log1p(-u) / std::log1p(-p)));
}

double Rng::exponential(double lambda) {
  if (lambda <= 0.0) throw std::invalid_argument("Rng::exponential: lambda <= 0");
  return -std::log1p(-uniform01()) / lambda;
}

std::size_t Rng::weighted(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument("Rng::weighted: empty weights");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) throw std::invalid_argument("Rng::weighted: non-positive total");
  double x = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // floating point slop
}

std::size_t Rng::weighted(std::initializer_list<double> weights) {
  return weighted(std::span<const double>(weights.begin(), weights.size()));
}

ZipfTable::ZipfTable(std::uint64_t n, double s) {
  if (n == 0) throw std::invalid_argument("Rng::zipf: n == 0");
  if (s <= 0.0) throw std::invalid_argument("Rng::zipf: s <= 0");
  weights_.reserve(n);
  for (std::uint64_t k = 1; k <= n; ++k) {
    weights_.push_back(1.0 / std::pow(static_cast<double>(k), s));
    total_ += weights_.back();
  }
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) { return zipf(ZipfTable(n, s)); }

std::uint64_t Rng::zipf(const ZipfTable& table) {
  // Inverse-CDF on the (truncated) harmonic weights, summed and subtracted
  // in rank order. n is small in our use (hundreds to thousands), so the
  // linear scan is fine and exact.
  double x = uniform01() * table.total_;
  for (std::size_t k = 0; k < table.weights_.size(); ++k) {
    x -= table.weights_[k];
    if (x < 0.0) return k + 1;
  }
  return table.n();
}

}  // namespace malnet::util
