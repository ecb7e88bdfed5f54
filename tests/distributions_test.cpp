#include "support/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "support/gof.h"
#include "support/rng.h"
#include "support/stats.h"

namespace sgl {
namespace {

constexpr double k_reject_level = 1e-4;  // statistical tests use fixed seeds

// --- normal -------------------------------------------------------------------

TEST(normal_sampler, moments) {
  rng gen{1};
  running_stats s;
  for (int i = 0; i < 200000; ++i) s.add(sample_standard_normal(gen));
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.stddev(), 1.0, 0.01);
}

TEST(normal_sampler, ks_against_normal_cdf) {
  rng gen{2};
  std::vector<double> xs(5000);
  for (double& x : xs) x = sample_standard_normal(gen);
  std::sort(xs.begin(), xs.end());
  std::vector<double> cdf(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) cdf[i] = normal_cdf(xs[i]);
  EXPECT_GT(ks_test_from_cdf(cdf).p_value, k_reject_level);
}

TEST(normal_sampler, location_and_scale) {
  rng gen{3};
  running_stats s;
  for (int i = 0; i < 100000; ++i) s.add(sample_normal(gen, 5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

// --- exponential ---------------------------------------------------------------

TEST(exponential_sampler, moments_and_positivity) {
  rng gen{4};
  running_stats s;
  for (int i = 0; i < 100000; ++i) {
    const double x = sample_exponential(gen, 2.0);
    EXPECT_GE(x, 0.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.stddev(), 0.5, 0.02);
}

TEST(exponential_sampler, ks_fit) {
  rng gen{5};
  constexpr double rate = 0.7;
  std::vector<double> xs(5000);
  for (double& x : xs) x = sample_exponential(gen, rate);
  std::sort(xs.begin(), xs.end());
  std::vector<double> cdf(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) cdf[i] = 1.0 - std::exp(-rate * xs[i]);
  EXPECT_GT(ks_test_from_cdf(cdf).p_value, k_reject_level);
}

// --- geometric -----------------------------------------------------------------

TEST(geometric_sampler, pmf_chi_square) {
  rng gen{6};
  constexpr double p = 0.3;
  constexpr int cap = 30;
  std::vector<std::uint64_t> counts(cap + 1, 0);
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[std::min<std::uint64_t>(sample_geometric(gen, p), cap)];
  }
  std::vector<double> expected(cap + 1, 0.0);
  double tail = 1.0;
  for (int k = 0; k < cap; ++k) {
    expected[k] = p * std::pow(1.0 - p, k);
    tail -= expected[k];
  }
  expected[cap] = tail;
  EXPECT_GT(chi_square_test(counts, expected).p_value, k_reject_level);
}

TEST(geometric_sampler, p_one_is_always_zero) {
  rng gen{7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sample_geometric(gen, 1.0), 0U);
}

// --- binomial ------------------------------------------------------------------

struct binomial_case {
  std::uint64_t n;
  double p;
};

class binomial_pmf_test : public ::testing::TestWithParam<binomial_case> {};

TEST_P(binomial_pmf_test, chi_square_against_exact_pmf) {
  const auto [n, p] = GetParam();
  rng gen{static_cast<std::uint64_t>(n * 7919) + 11};
  std::vector<std::uint64_t> counts(n + 1, 0);
  constexpr int draws = 40000;
  for (int i = 0; i < draws; ++i) ++counts[sample_binomial(gen, n, p)];

  std::vector<double> expected(n + 1, 0.0);
  for (std::uint64_t k = 0; k <= n; ++k) {
    const double log_pmf = std::lgamma(static_cast<double>(n + 1)) -
                           std::lgamma(static_cast<double>(k + 1)) -
                           std::lgamma(static_cast<double>(n - k + 1)) +
                           static_cast<double>(k) * std::log(p) +
                           static_cast<double>(n - k) * std::log1p(-p);
    expected[k] = std::exp(log_pmf);
  }
  EXPECT_GT(chi_square_test(counts, expected).p_value, k_reject_level)
      << "n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    regimes, binomial_pmf_test,
    ::testing::Values(binomial_case{1, 0.5},      // Bernoulli
                      binomial_case{5, 0.2},      // inversion, tiny
                      binomial_case{20, 0.4},     // inversion, moderate np
                      binomial_case{40, 0.04},    // inversion, skewed
                      binomial_case{60, 0.5},     // BTRS
                      binomial_case{100, 0.2},    // BTRS
                      binomial_case{100, 0.8},    // BTRS via symmetry
                      binomial_case{250, 0.33},   // BTRS larger
                      binomial_case{50, 0.97}));  // symmetry + inversion

TEST(binomial_sampler, edge_cases) {
  rng gen{8};
  EXPECT_EQ(sample_binomial(gen, 0, 0.5), 0U);
  EXPECT_EQ(sample_binomial(gen, 100, 0.0), 0U);
  EXPECT_EQ(sample_binomial(gen, 100, 1.0), 100U);
  EXPECT_EQ(sample_binomial(gen, 100, -0.5), 0U);
  EXPECT_EQ(sample_binomial(gen, 100, 1.5), 100U);
}

TEST(binomial_sampler, large_n_moments) {
  rng gen{9};
  constexpr std::uint64_t n = 1000000;
  constexpr double p = 0.37;
  running_stats s;
  for (int i = 0; i < 3000; ++i) s.add(static_cast<double>(sample_binomial(gen, n, p)));
  const double nd = static_cast<double>(n);
  EXPECT_NEAR(s.mean(), nd * p, 5.0 * std::sqrt(nd * p * (1 - p) / 3000.0));
  EXPECT_NEAR(s.stddev(), std::sqrt(nd * p * (1 - p)), 20.0);
}

TEST(binomial_sampler, never_exceeds_n) {
  rng gen{10};
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LE(sample_binomial(gen, 17, 0.9), 17U);
  }
}

// --- multinomial ----------------------------------------------------------------

TEST(multinomial_sampler, counts_sum_to_n) {
  rng gen{11};
  const std::vector<double> w{0.2, 0.3, 0.5};
  std::vector<std::uint64_t> out(3);
  for (int i = 0; i < 1000; ++i) {
    sample_multinomial(gen, 1000, w, out);
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::uint64_t{0}), 1000U);
  }
}

TEST(multinomial_sampler, marginals_are_binomial_means) {
  rng gen{12};
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};  // unnormalized on purpose
  std::vector<std::uint64_t> out(4);
  std::vector<running_stats> stats(4);
  constexpr std::uint64_t n = 10000;
  for (int i = 0; i < 2000; ++i) {
    sample_multinomial(gen, n, w, out);
    for (std::size_t j = 0; j < 4; ++j) stats[j].add(static_cast<double>(out[j]));
  }
  for (std::size_t j = 0; j < 4; ++j) {
    const double pj = w[j] / 10.0;
    EXPECT_NEAR(stats[j].mean(), static_cast<double>(n) * pj,
                5.0 * std::sqrt(static_cast<double>(n) * pj * (1 - pj) / 2000.0) + 1.0);
  }
}

TEST(multinomial_sampler, zero_weight_categories_get_nothing) {
  rng gen{13};
  const std::vector<double> w{0.0, 1.0, 0.0};
  std::vector<std::uint64_t> out(3);
  sample_multinomial(gen, 500, w, out);
  EXPECT_EQ(out[0], 0U);
  EXPECT_EQ(out[1], 500U);
  EXPECT_EQ(out[2], 0U);
}

TEST(multinomial_sampler, single_category) {
  rng gen{14};
  const std::vector<double> w{2.0};
  std::vector<std::uint64_t> out(1);
  sample_multinomial(gen, 42, w, out);
  EXPECT_EQ(out[0], 42U);
}

TEST(multinomial_sampler, rejects_bad_input) {
  rng gen{15};
  std::vector<std::uint64_t> out(2);
  EXPECT_THROW(sample_multinomial(gen, 10, std::vector<double>{0.5}, out),
               std::invalid_argument);
  EXPECT_THROW(sample_multinomial(gen, 10, std::vector<double>{-1.0, 2.0}, out),
               std::invalid_argument);
  EXPECT_THROW(sample_multinomial(gen, 10, std::vector<double>{0.0, 0.0}, out),
               std::invalid_argument);
}

// --- categorical ----------------------------------------------------------------

TEST(categorical_sampler, frequencies_match_weights) {
  rng gen{16};
  const std::vector<double> w{1.0, 3.0, 6.0};
  std::vector<std::uint64_t> counts(3, 0);
  constexpr int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[sample_categorical(gen, w)];
  const std::vector<double> expected{0.1, 0.3, 0.6};
  EXPECT_GT(chi_square_test(counts, expected).p_value, k_reject_level);
}

TEST(categorical_sampler, skips_zero_weights) {
  rng gen{17};
  const std::vector<double> w{0.0, 1.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(sample_categorical(gen, w), 1U);
}

// --- gamma / beta ----------------------------------------------------------------

TEST(gamma_sampler, moments_shape_above_one) {
  rng gen{21};
  constexpr double shape = 4.5;
  running_stats s;
  for (int i = 0; i < 100000; ++i) s.add(sample_gamma(gen, shape));
  EXPECT_NEAR(s.mean(), shape, 0.05);
  EXPECT_NEAR(s.variance(), shape, 0.15);
}

TEST(gamma_sampler, moments_shape_below_one) {
  rng gen{22};
  constexpr double shape = 0.4;
  running_stats s;
  for (int i = 0; i < 100000; ++i) {
    const double x = sample_gamma(gen, shape);
    EXPECT_GE(x, 0.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), shape, 0.02);
}

TEST(beta_sampler, moments) {
  rng gen{23};
  constexpr double a = 2.0;
  constexpr double b = 5.0;
  running_stats s;
  for (int i = 0; i < 100000; ++i) {
    const double x = sample_beta(gen, a, b);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), a / (a + b), 0.005);
  EXPECT_NEAR(s.variance(), a * b / ((a + b) * (a + b) * (a + b + 1)), 0.002);
}

TEST(beta_sampler, uniform_special_case) {
  rng gen{24};
  running_stats s;
  for (int i = 0; i < 50000; ++i) s.add(sample_beta(gen, 1.0, 1.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

// --- shuffle ------------------------------------------------------------------

TEST(shuffle, permutes_uniformly) {
  rng gen{25};
  // 3 elements -> 6 permutations; chi-square over permutation ids.
  std::vector<std::uint64_t> counts(6, 0);
  constexpr int n = 60000;
  for (int i = 0; i < n; ++i) {
    std::vector<int> items{0, 1, 2};
    shuffle(gen, std::span<int>{items});
    const std::size_t id = static_cast<std::size_t>(items[0] * 2 +
                                                    (items[1] > items[2] ? 1 : 0));
    ++counts[id];
  }
  const std::vector<double> expected(6, 1.0 / 6.0);
  EXPECT_GT(chi_square_test(counts, expected).p_value, k_reject_level);
}

TEST(shuffle, preserves_elements) {
  rng gen{26};
  std::vector<int> items{5, 6, 7, 8, 9};
  shuffle(gen, std::span<int>{items});
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, (std::vector<int>{5, 6, 7, 8, 9}));
}

TEST(shuffle, empty_and_singleton_are_fine) {
  rng gen{27};
  std::vector<int> empty;
  shuffle(gen, std::span<int>{empty});
  std::vector<int> one{42};
  shuffle(gen, std::span<int>{one});
  EXPECT_EQ(one[0], 42);
}

}  // namespace
}  // namespace sgl
