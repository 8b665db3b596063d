#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

using namespace malnet::util;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  // Forking with the same name from identically-seeded parents at the same
  // point must agree...
  Rng a(9), b(9);
  Rng fa = a.fork("x");
  Rng fb = b.fork("x");
  EXPECT_EQ(fa(), fb());
  // ...and differently-named forks must not.
  Rng c(9);
  Rng fc = c.fork("y");
  Rng d(9);
  Rng fd = d.fork("x");
  EXPECT_NE(fc(), fd());
}

TEST(Rng, UniformStaysInBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_EQ(r.uniform(7, 7), 7u);
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng r(3);
  EXPECT_THROW((void)r.uniform(5, 4), std::invalid_argument);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng r(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng r(6);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
  EXPECT_FALSE(r.chance(-1.0));
  EXPECT_TRUE(r.chance(2.0));
}

TEST(Rng, GeometricMeanMatches) {
  Rng r(7);
  const double p = 0.4;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.geometric(p));
  EXPECT_NEAR(sum / n, (1 - p) / p, 0.05);
}

TEST(Rng, GeometricWithPOneIsZero) {
  Rng r(8);
  EXPECT_EQ(r.geometric(1.0), 0u);
}

TEST(Rng, GeometricRejectsBadP) {
  Rng r(8);
  EXPECT_THROW((void)r.geometric(0.0), std::invalid_argument);
  EXPECT_THROW((void)r.geometric(1.5), std::invalid_argument);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng r(10);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) ++counts[r.weighted({1.0, 2.0, 7.0})];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, WeightedRejectsDegenerate) {
  Rng r(11);
  EXPECT_THROW((void)r.weighted({}), std::invalid_argument);
  EXPECT_THROW((void)r.weighted({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, ZipfFavoursLowRanks) {
  Rng r(12);
  int rank1 = 0, rank10 = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto k = r.zipf(10, 1.0);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 10u);
    if (k == 1) ++rank1;
    if (k == 10) ++rank10;
  }
  EXPECT_GT(rank1, rank10 * 5);
}

TEST(Rng, ZipfTableDrawsMatchTheFormulaBitForBit) {
  // The formula as it stood before weights were cached: n pow() calls to sum
  // the weights, then n more while subtracting them from the scaled draw.
  const auto formula = [](Rng& r, std::uint64_t n, double s) -> std::uint64_t {
    double total = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) total += 1.0 / std::pow(static_cast<double>(k), s);
    double x = r.uniform01() * total;
    for (std::uint64_t k = 1; k <= n; ++k) {
      x -= 1.0 / std::pow(static_cast<double>(k), s);
      if (x < 0.0) return k;
    }
    return n;
  };
  for (const std::uint64_t n : {1u, 2u, 64u, 1024u}) {
    for (const double s : {0.5, 0.85, 1.0, 1.7, 3.0}) {
      const ZipfTable table(n, s);
      EXPECT_EQ(table.n(), n);
      Rng cached(n * 31 + 5), direct(n * 31 + 5), reference(n * 31 + 5);
      for (int i = 0; i < 2000; ++i) {
        const auto want = formula(reference, n, s);
        ASSERT_EQ(cached.zipf(table), want) << "n=" << n << " s=" << s << " draw " << i;
        ASSERT_EQ(direct.zipf(n, s), want) << "n=" << n << " s=" << s << " draw " << i;
      }
    }
  }
  EXPECT_THROW(ZipfTable(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfTable(4, 0.0), std::invalid_argument);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng r(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  r.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Fnv1a, StableKnownValue) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

class RngDistributionSweep : public ::testing::TestWithParam<double> {};

TEST_P(RngDistributionSweep, GeometricMeanAcrossP) {
  const double p = GetParam();
  Rng r(static_cast<std::uint64_t>(p * 1000));
  double sum = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.geometric(p));
  const double expected = (1 - p) / p;
  EXPECT_NEAR(sum / n, expected, expected * 0.1 + 0.02);
}

INSTANTIATE_TEST_SUITE_P(PSweep, RngDistributionSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));
