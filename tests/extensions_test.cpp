// Tests for the extension modules: the Markov regime-switching environment,
// the EXP3 bandit baseline, and the deterministic mean-field limit map.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algo/exp3.h"
#include "core/infinite_dynamics.h"
#include "core/mean_field.h"
#include "core/params.h"
#include "env/markov_rewards.h"
#include "env/reward_model.h"
#include "support/rng.h"
#include "support/stats.h"

namespace sgl {
namespace {

// --- markov_rewards -----------------------------------------------------------

env::markov_rewards make_two_regime(std::uint64_t horizon, std::uint64_t seed,
                                    double stay = 0.95) {
  // Bull: option 0 good; bear: option 1 good.
  return env::markov_rewards{{{0.85, 0.3}, {0.3, 0.85}},
                             {{stay, 1.0 - stay}, {1.0 - stay, stay}},
                             horizon,
                             seed};
}

TEST(markov_rewards, path_is_deterministic_given_seed) {
  const auto a = make_two_regime(500, 42);
  const auto b = make_two_regime(500, 42);
  for (std::uint64_t t = 1; t <= 500; ++t) {
    ASSERT_EQ(a.regime_at(t), b.regime_at(t));
  }
  const auto c = make_two_regime(500, 43);
  std::uint64_t diffs = 0;
  for (std::uint64_t t = 1; t <= 500; ++t) {
    if (a.regime_at(t) != c.regime_at(t)) ++diffs;
  }
  EXPECT_GT(diffs, 0U);
}

TEST(markov_rewards, starts_in_regime_zero_and_switches) {
  const auto model = make_two_regime(2000, 7);
  EXPECT_EQ(model.regime_at(1), 0U);
  // With stay = 0.95 over 2000 steps we expect ~100 switches.
  EXPECT_GT(model.num_switches(), 40U);
  EXPECT_LT(model.num_switches(), 250U);
}

TEST(markov_rewards, means_follow_the_regime_path) {
  const auto model = make_two_regime(300, 11);
  for (std::uint64_t t = 1; t <= 300; ++t) {
    const double expected0 = model.regime_at(t) == 0 ? 0.85 : 0.3;
    ASSERT_DOUBLE_EQ(model.mean(t, 0), expected0);
    // Best option flips with the regime.
    ASSERT_EQ(model.best_option(t), model.regime_at(t));
  }
  EXPECT_FALSE(model.is_stationary());
}

TEST(markov_rewards, sampling_matches_current_regime) {
  auto model = make_two_regime(100, 13, /*stay=*/1.0);  // never leaves regime 0
  rng gen{3};
  std::vector<std::uint8_t> r(2);
  running_stats first;
  for (std::uint64_t t = 1; t <= 20000; ++t) {
    model.sample(1 + (t % 100), gen, r);
    first.add(r[0]);
  }
  EXPECT_NEAR(first.mean(), 0.85, 0.01);
}

TEST(markov_rewards, steps_beyond_horizon_hold_last_regime) {
  const auto model = make_two_regime(50, 17);
  EXPECT_EQ(model.regime_at(10000), model.regime_at(50));
}

TEST(markov_rewards, validates_construction) {
  EXPECT_THROW((env::markov_rewards{{}, {}, 10, 1}), std::invalid_argument);
  EXPECT_THROW((env::markov_rewards{{{0.5}, {0.5, 0.5}}, {{1.0}}, 10, 1}),
               std::invalid_argument);
  EXPECT_THROW((env::markov_rewards{{{1.5}}, {{1.0}}, 10, 1}), std::invalid_argument);
  EXPECT_THROW((env::markov_rewards{{{0.5}}, {{0.5}}, 10, 1}),
               std::invalid_argument);  // row does not sum to 1
  EXPECT_THROW((env::markov_rewards{{{0.5}}, {{1.0}}, 0, 1}), std::invalid_argument);
}

// --- exp3 ----------------------------------------------------------------------

TEST(exp3, starts_uniform_and_validates) {
  algo::exp3 policy{4, 0.1};
  rng gen{1};
  (void)policy.select(gen);
  for (const double p : policy.distribution()) EXPECT_GT(p, 0.1 / 4.0 - 1e-12);
  EXPECT_THROW((algo::exp3{0, 0.1}), std::invalid_argument);
  EXPECT_THROW((algo::exp3{2, 0.0}), std::invalid_argument);
  EXPECT_THROW((algo::exp3{2, 1.5}), std::invalid_argument);
  EXPECT_THROW(policy.update(9, 1), std::out_of_range);
}

TEST(exp3, learns_the_better_arm) {
  algo::exp3 policy{2, 0.1};
  rng gen{2};
  int best_pulls = 0;
  for (int t = 0; t < 4000; ++t) {
    const std::size_t arm = policy.select(gen);
    const std::uint8_t reward = gen.next_bernoulli(arm == 0 ? 0.9 : 0.1) ? 1 : 0;
    policy.update(arm, reward);
    if (t >= 2000 && arm == 0) ++best_pulls;
  }
  EXPECT_GT(best_pulls, 1400);  // of the last 2000
}

TEST(exp3, exploration_floor_is_gamma_over_m) {
  algo::exp3 policy{2, 0.2};
  rng gen{3};
  // Hammer arm 0 with rewards; arm 1's probability must stay >= gamma/m.
  for (int t = 0; t < 500; ++t) {
    (void)policy.select(gen);
    policy.update(0, 1);
  }
  (void)policy.select(gen);
  EXPECT_GE(policy.distribution()[1], 0.1 - 1e-12);
}

TEST(exp3, reset_restores_uniform) {
  algo::exp3 policy{3, 0.3};
  rng gen{4};
  (void)policy.select(gen);
  policy.update(0, 1);
  policy.reset();
  (void)policy.select(gen);
  for (const double p : policy.distribution()) EXPECT_NEAR(p, 1.0 / 3.0, 1e-12);
}

TEST(exp3, optimal_gamma_formula) {
  const double g = algo::exp3_optimal_gamma(10, 10000);
  EXPECT_GT(g, 0.0);
  EXPECT_LE(g, 1.0);
  // Short horizons clamp to 1.
  EXPECT_DOUBLE_EQ(algo::exp3_optimal_gamma(10, 1), 1.0);
  EXPECT_THROW((void)algo::exp3_optimal_gamma(1, 100), std::invalid_argument);
}

// --- mean_field_map -------------------------------------------------------------

core::dynamics_params mf_params(std::size_t m, double mu, double beta) {
  core::dynamics_params p;
  p.num_options = m;
  p.mu = mu;
  p.beta = beta;
  return p;
}

TEST(mean_field_map, gains_and_validation) {
  core::mean_field_map map{mf_params(2, 0.1, 0.7), {0.8, 0.2}};
  EXPECT_NEAR(map.gain(0), 0.7 * 0.8 + 0.3 * 0.2, 1e-12);
  EXPECT_NEAR(map.gain(1), 0.7 * 0.2 + 0.3 * 0.8, 1e-12);
  EXPECT_THROW((core::mean_field_map{mf_params(2, 0.1, 0.7), {0.8}}),
               std::invalid_argument);
  EXPECT_THROW((core::mean_field_map{mf_params(1, 0.1, 0.7), {1.5}}),
               std::invalid_argument);
}

TEST(mean_field_map, state_stays_on_simplex) {
  core::mean_field_map map{mf_params(4, 0.05, 0.65), {0.9, 0.5, 0.5, 0.2}};
  for (int t = 0; t < 1000; ++t) {
    map.step();
    double total = 0.0;
    for (const double x : map.state()) {
      EXPECT_GE(x, 0.0);
      total += x;
    }
    ASSERT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(mean_field_map, mu_zero_converges_to_pure_best) {
  core::mean_field_map map{mf_params(3, 0.0, 0.65), {0.9, 0.5, 0.2}};
  const std::uint64_t iterations = map.solve_fixed_point();
  EXPECT_GT(iterations, 0U);
  EXPECT_NEAR(map.state()[0], 1.0, 1e-9);
}

TEST(mean_field_map, fixed_point_is_invariant_under_the_map) {
  core::mean_field_map map{mf_params(3, 0.08, 0.62), {0.85, 0.4, 0.4}};
  map.solve_fixed_point(1e-14);
  const std::vector<double> fp(map.state().begin(), map.state().end());
  map.step();
  for (std::size_t j = 0; j < fp.size(); ++j) {
    EXPECT_NEAR(map.state()[j], fp[j], 1e-10);
  }
}

TEST(mean_field_map, fixed_point_independent_of_start) {
  core::mean_field_map a{mf_params(3, 0.08, 0.62), {0.85, 0.4, 0.4}};
  core::mean_field_map b{mf_params(3, 0.08, 0.62), {0.85, 0.4, 0.4}};
  b.reset(std::vector<double>{0.01, 0.01, 0.98});
  a.solve_fixed_point();
  b.solve_fixed_point();
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(a.state()[j], b.state()[j], 1e-9);
  }
}

TEST(mean_field_map, more_exploration_means_more_regret_at_equilibrium) {
  const std::vector<double> etas{0.85, 0.35};
  core::mean_field_map tight{mf_params(2, 0.01, 0.65), etas};
  core::mean_field_map loose{mf_params(2, 0.20, 0.65), etas};
  EXPECT_LT(tight.steady_state_regret(), loose.steady_state_regret());
  EXPECT_GT(tight.steady_state_regret(), 0.0);
}

TEST(mean_field_map, equal_gains_keep_uniform_fixed) {
  // eta identical => gains identical => uniform is the fixed point.
  core::mean_field_map map{mf_params(4, 0.1, 0.6), {0.5, 0.5, 0.5, 0.5}};
  map.solve_fixed_point();
  for (const double x : map.state()) EXPECT_NEAR(x, 0.25, 1e-12);
}

TEST(mean_field_map, predicts_stochastic_steady_state) {
  // The stochastic infinite dynamics fluctuates around the mean-field fixed
  // point; long-run time averages should be close for small delta.
  const core::dynamics_params params = core::theorem_params(2, 0.58);
  const std::vector<double> etas{0.8, 0.4};
  core::mean_field_map map{params, etas};
  map.solve_fixed_point();
  const double predicted = map.state()[0];

  core::infinite_dynamics dyn{params};
  env::bernoulli_rewards environment{etas};
  rng gen{9};
  std::vector<std::uint8_t> r(2);
  running_stats late;
  for (std::uint64_t t = 1; t <= 20000; ++t) {
    environment.sample(t, gen, r);
    dyn.step(r);
    if (t > 10000) late.add(dyn.distribution()[0]);
  }
  EXPECT_NEAR(late.mean(), predicted, 0.05);
}

}  // namespace
}  // namespace sgl
