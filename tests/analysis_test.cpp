// Tests for the analysis module: autocorrelation machinery, block
// bootstrap, hitting times / burn-in, and the regret decomposition.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "analysis/decomposition.h"
#include "analysis/timeseries.h"
#include "core/params.h"
#include "support/rng.h"

namespace sgl::analysis {
namespace {

std::vector<double> iid_series(std::size_t n, std::uint64_t seed) {
  rng gen{seed};
  std::vector<double> xs(n);
  for (double& x : xs) x = gen.next_double();
  return xs;
}

/// AR(1) with coefficient phi: strong, known autocorrelation rho(k) = phi^k.
std::vector<double> ar1_series(std::size_t n, double phi, std::uint64_t seed) {
  rng gen{seed};
  std::vector<double> xs(n);
  double x = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    x = phi * x + (gen.next_double() - 0.5);
    xs[t] = x;
  }
  return xs;
}

// --- autocorrelation ----------------------------------------------------------

TEST(autocorrelation, lag_zero_is_one_and_iid_decays) {
  const auto xs = iid_series(20000, 1);
  const auto rho = autocorrelation(xs, 10);
  EXPECT_DOUBLE_EQ(rho[0], 1.0);
  for (std::size_t k = 1; k <= 10; ++k) EXPECT_NEAR(rho[k], 0.0, 0.03);
}

TEST(autocorrelation, ar1_matches_phi_power) {
  const double phi = 0.8;
  const auto xs = ar1_series(50000, phi, 2);
  const auto rho = autocorrelation(xs, 5);
  for (std::size_t k = 1; k <= 5; ++k) {
    EXPECT_NEAR(rho[k], std::pow(phi, static_cast<double>(k)), 0.04) << "k=" << k;
  }
}

TEST(autocorrelation, constant_series_is_zero_beyond_lag_zero) {
  const std::vector<double> xs(100, 3.5);
  const auto rho = autocorrelation(xs, 5);
  EXPECT_DOUBLE_EQ(rho[0], 1.0);
  for (std::size_t k = 1; k <= 5; ++k) EXPECT_DOUBLE_EQ(rho[k], 0.0);
}

TEST(autocorrelation, validates_input) {
  EXPECT_THROW(autocorrelation(std::vector<double>{1.0}, 0), std::invalid_argument);
  EXPECT_THROW(autocorrelation(std::vector<double>{1.0, 2.0}, 2), std::invalid_argument);
}

// --- integrated autocorrelation time / ESS -----------------------------------------

TEST(integrated_autocorrelation_time, iid_is_about_one) {
  const auto xs = iid_series(20000, 3);
  EXPECT_NEAR(integrated_autocorrelation_time(xs), 1.0, 0.25);
}

TEST(integrated_autocorrelation_time, ar1_matches_theory) {
  // For AR(1): tau = (1 + phi) / (1 - phi) = 9 at phi = 0.8.
  const auto xs = ar1_series(200000, 0.8, 4);
  EXPECT_NEAR(integrated_autocorrelation_time(xs), 9.0, 1.5);
}

TEST(effective_sample_size, shrinks_with_correlation) {
  const auto iid = iid_series(10000, 5);
  const auto corr = ar1_series(10000, 0.9, 6);
  EXPECT_GT(effective_sample_size(iid), 5.0 * effective_sample_size(corr));
  EXPECT_DOUBLE_EQ(effective_sample_size(std::vector<double>{}), 0.0);
}

// --- block bootstrap ----------------------------------------------------------------

TEST(block_bootstrap, mean_matches_and_interval_covers) {
  const auto xs = iid_series(5000, 7);
  const mean_ci ci = block_bootstrap_mean(xs, 0.95);
  EXPECT_NEAR(ci.mean, 0.5, 0.02);
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_LE(ci.lo(), 0.5);
  EXPECT_GE(ci.hi(), 0.5);
}

TEST(block_bootstrap, wider_for_correlated_series) {
  // Same marginal variance scale, but AR(1) correlations must widen the CI
  // relative to a naive i.i.d. resample of the same length.
  const auto corr = ar1_series(4000, 0.9, 8);
  const auto iid = iid_series(4000, 9);
  const mean_ci ci_corr = block_bootstrap_mean(corr, 0.95, 0, 1500, 1);
  const mean_ci ci_iid = block_bootstrap_mean(iid, 0.95, 0, 1500, 1);
  // AR(1) with phi=0.9 has ~19x the asymptotic variance of its innovations;
  // the block bootstrap must reflect a decisively wider interval.
  EXPECT_GT(ci_corr.half_width, 2.0 * ci_iid.half_width);
}

TEST(block_bootstrap, deterministic_given_seed) {
  const auto xs = ar1_series(1000, 0.5, 10);
  const mean_ci a = block_bootstrap_mean(xs, 0.95, 16, 500, 42);
  const mean_ci b = block_bootstrap_mean(xs, 0.95, 16, 500, 42);
  EXPECT_DOUBLE_EQ(a.half_width, b.half_width);
}

TEST(block_bootstrap, validates_input) {
  EXPECT_THROW((void)block_bootstrap_mean(std::vector<double>{1.0}), std::invalid_argument);
  const auto xs = iid_series(100, 11);
  EXPECT_THROW((void)block_bootstrap_mean(xs, 1.5), std::invalid_argument);
  EXPECT_THROW((void)block_bootstrap_mean(xs, 0.95, 0, 5), std::invalid_argument);
}

// --- hitting time / burn-in -----------------------------------------------------------

TEST(hitting_time, finds_first_crossing) {
  const std::vector<double> xs{0.1, 0.4, 0.3, 0.9, 0.95};
  EXPECT_EQ(hitting_time(xs, 0.5), 3U);
  EXPECT_EQ(hitting_time(xs, 0.05), 0U);
  EXPECT_EQ(hitting_time(xs, 2.0), xs.size());
}

TEST(burn_in, detects_settling_point) {
  // Ramp for 50 steps, then flat at 1.0.
  std::vector<double> xs;
  for (int t = 0; t < 50; ++t) xs.push_back(static_cast<double>(t) / 50.0);
  for (int t = 0; t < 150; ++t) xs.push_back(1.0);
  const std::size_t b = burn_in(xs, 0.05);
  EXPECT_GE(b, 45U);
  EXPECT_LE(b, 55U);
}

TEST(burn_in, already_stationary_is_zero) {
  const std::vector<double> xs(100, 0.7);
  EXPECT_EQ(burn_in(xs, 0.01), 0U);
}

TEST(burn_in, validates_band) {
  const std::vector<double> xs(10, 0.0);
  EXPECT_THROW((void)burn_in(xs, 0.0), std::invalid_argument);
}

// --- regret decomposition ---------------------------------------------------------------

core::dynamics_params decomposition_params(double mu) {
  core::dynamics_params p;
  p.num_options = 3;
  p.mu = mu;
  p.beta = 0.65;
  return p;
}

TEST(decompose_regret, per_option_contributions_sum_to_total) {
  const std::vector<double> mass{0.8, 0.15, 0.05};
  const std::vector<double> etas{0.9, 0.5, 0.3};
  const regret_breakdown b = decompose_regret(mass, etas, decomposition_params(0.05));
  EXPECT_NEAR(b.total, 0.15 * 0.4 + 0.05 * 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(b.per_option[0], 0.0);  // best contributes nothing
  double sum = 0.0;
  for (const double x : b.per_option) sum += x;
  EXPECT_NEAR(sum, b.total, 1e-12);
}

TEST(decompose_regret, exploration_floor_scales_with_mu) {
  const std::vector<double> mass{0.9, 0.05, 0.05};
  const std::vector<double> etas{0.9, 0.5, 0.3};
  const regret_breakdown lo = decompose_regret(mass, etas, decomposition_params(0.01));
  const regret_breakdown hi = decompose_regret(mass, etas, decomposition_params(0.10));
  EXPECT_NEAR(hi.exploration_floor, 10.0 * lo.exploration_floor, 1e-12);
  EXPECT_NEAR(lo.exploration_floor, 0.01 * (0.4 + 0.6) / 3.0, 1e-12);
}

TEST(decompose_regret, converged_population_has_small_excess) {
  // All non-floor mass on the best option: excess ~ 0.
  const double mu = 0.06;
  const std::vector<double> etas{0.9, 0.5, 0.3};
  const std::vector<double> mass{0.98, 0.012, 0.008};
  const regret_breakdown b = decompose_regret(mass, etas, decomposition_params(mu));
  EXPECT_LT(b.convergence_excess, b.total);
  EXPECT_GE(b.convergence_excess, 0.0);
}

TEST(decompose_regret, validates_input) {
  const auto params = decomposition_params(0.05);
  EXPECT_THROW(
      decompose_regret(std::vector<double>{0.5, 0.5}, std::vector<double>{0.5}, params),
      std::invalid_argument);
  EXPECT_THROW(decompose_regret(std::vector<double>{0.9, 0.4},
                                std::vector<double>{0.5, 0.5}, params),
               std::invalid_argument);  // mass does not sum to 1
}

}  // namespace
}  // namespace sgl::analysis
