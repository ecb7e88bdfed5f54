#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algo/bandit.h"
#include "algo/full_info.h"
#include "support/rng.h"
#include "support/stats.h"

namespace sgl::algo {
namespace {

// --- hedge -----------------------------------------------------------------------

TEST(hedge, starts_uniform) {
  const hedge h{4, 0.5};
  for (const double p : h.distribution()) EXPECT_DOUBLE_EQ(p, 0.25);
}

TEST(hedge, closed_form_softmax_after_updates) {
  hedge h{2, 0.5};
  h.update(std::vector<std::uint8_t>{1, 0});
  h.update(std::vector<std::uint8_t>{1, 0});
  h.update(std::vector<std::uint8_t>{0, 1});
  // Cumulative rewards: (2, 1); weights exp(0.5*2), exp(0.5*1).
  const double w0 = std::exp(1.0);
  const double w1 = std::exp(0.5);
  EXPECT_NEAR(h.distribution()[0], w0 / (w0 + w1), 1e-12);
  EXPECT_NEAR(h.distribution()[1], w1 / (w0 + w1), 1e-12);
}

TEST(hedge, long_horizon_no_underflow) {
  hedge h{3, 1.0};
  const std::vector<std::uint8_t> r{1, 0, 0};
  for (int t = 0; t < 5000; ++t) h.update(r);
  EXPECT_NEAR(h.distribution()[0], 1.0, 1e-9);
  EXPECT_GE(h.distribution()[1], 0.0);
  double total = 0.0;
  for (const double p : h.distribution()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(hedge, reset_restores_uniform) {
  hedge h{2, 0.3};
  h.update(std::vector<std::uint8_t>{1, 0});
  h.reset();
  EXPECT_DOUBLE_EQ(h.distribution()[0], 0.5);
}

TEST(hedge, validates_input) {
  EXPECT_THROW((hedge{0, 0.5}), std::invalid_argument);
  EXPECT_THROW((hedge{2, 0.0}), std::invalid_argument);
  hedge h{2, 0.5};
  EXPECT_THROW(h.update(std::vector<std::uint8_t>{1}), std::invalid_argument);
}

TEST(hedge_optimal_rate, formula_and_validation) {
  EXPECT_NEAR(hedge_optimal_rate(10, 1000), std::sqrt(8.0 * std::log(10.0) / 1000.0),
              1e-12);
  EXPECT_THROW((void)hedge_optimal_rate(1, 1000), std::invalid_argument);
  EXPECT_THROW((void)hedge_optimal_rate(10, 0), std::invalid_argument);
}

// --- follow_the_leader --------------------------------------------------------------

TEST(follow_the_leader, tracks_cumulative_leader) {
  follow_the_leader ftl{3};
  ftl.update(std::vector<std::uint8_t>{0, 1, 0});
  EXPECT_DOUBLE_EQ(ftl.distribution()[1], 1.0);
  ftl.update(std::vector<std::uint8_t>{1, 0, 0});
  ftl.update(std::vector<std::uint8_t>{1, 0, 0});
  EXPECT_DOUBLE_EQ(ftl.distribution()[0], 1.0);
}

TEST(follow_the_leader, ties_break_to_lowest_index) {
  follow_the_leader ftl{2};
  ftl.update(std::vector<std::uint8_t>{1, 1});
  EXPECT_DOUBLE_EQ(ftl.distribution()[0], 1.0);
  EXPECT_DOUBLE_EQ(ftl.distribution()[1], 0.0);
}

TEST(follow_the_leader, reset) {
  follow_the_leader ftl{2};
  ftl.update(std::vector<std::uint8_t>{0, 1});
  ftl.reset();
  EXPECT_DOUBLE_EQ(ftl.distribution()[0], 0.5);
}

// --- uniform_policy ----------------------------------------------------------------

TEST(uniform_policy, never_moves) {
  uniform_policy u{5};
  u.update(std::vector<std::uint8_t>{1, 1, 1, 1, 1});
  for (const double p : u.distribution()) EXPECT_DOUBLE_EQ(p, 0.2);
}

// --- replicator_map ----------------------------------------------------------------

TEST(replicator_map, converges_to_best_option) {
  replicator_map rep{{0.8, 0.6, 0.4}};
  for (int t = 0; t < 200; ++t) rep.step();
  EXPECT_GT(rep.state()[0], 0.999);
}

TEST(replicator_map, pure_state_is_fixed_point) {
  replicator_map rep{{0.5, 0.5}};
  // Equal fitness: uniform state is invariant under the map.
  rep.step();
  EXPECT_DOUBLE_EQ(rep.state()[0], 0.5);
  EXPECT_DOUBLE_EQ(rep.state()[1], 0.5);
}

TEST(replicator_map, zero_quality_options_die_in_one_step) {
  replicator_map rep{{0.5, 0.0}};
  rep.step();
  EXPECT_DOUBLE_EQ(rep.state()[0], 1.0);
  EXPECT_DOUBLE_EQ(rep.state()[1], 0.0);
}

TEST(replicator_map, validates_input) {
  EXPECT_THROW(replicator_map{std::vector<double>{}}, std::invalid_argument);
  EXPECT_THROW((replicator_map{{0.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW((replicator_map{{1.5}}), std::invalid_argument);
}

// --- ucb1 -------------------------------------------------------------------------

TEST(ucb1, initialization_round_visits_every_arm) {
  ucb1 policy{4};
  rng gen{1};
  for (std::size_t j = 0; j < 4; ++j) {
    const std::size_t arm = policy.select(gen);
    EXPECT_EQ(arm, j);
    policy.update(arm, 0);
  }
}

TEST(ucb1, exploits_clearly_better_arm) {
  ucb1 policy{2};
  rng gen{2};
  int best_pulls = 0;
  for (int t = 0; t < 2000; ++t) {
    const std::size_t arm = policy.select(gen);
    const std::uint8_t reward = gen.next_bernoulli(arm == 0 ? 0.9 : 0.1) ? 1 : 0;
    policy.update(arm, reward);
    if (arm == 0) ++best_pulls;
  }
  EXPECT_GT(best_pulls, 1700);
}

TEST(ucb1, reset_and_errors) {
  ucb1 policy{2};
  rng gen{3};
  policy.update(policy.select(gen), 1);
  policy.reset();
  EXPECT_EQ(policy.select(gen), 0U);  // back to the init round
  EXPECT_THROW(policy.update(7, 1), std::out_of_range);
  EXPECT_THROW(ucb1{0}, std::invalid_argument);
}

// --- thompson_sampling --------------------------------------------------------------

TEST(thompson_sampling, exploits_clearly_better_arm) {
  thompson_sampling policy{3};
  rng gen{4};
  int best_pulls = 0;
  for (int t = 0; t < 3000; ++t) {
    const std::size_t arm = policy.select(gen);
    const std::uint8_t reward = gen.next_bernoulli(arm == 1 ? 0.8 : 0.2) ? 1 : 0;
    policy.update(arm, reward);
    if (t >= 1000 && arm == 1) ++best_pulls;
  }
  EXPECT_GT(best_pulls, 1700);  // of the last 2000
}

TEST(thompson_sampling, reset_and_errors) {
  thompson_sampling policy{2};
  policy.update(0, 1);
  policy.reset();
  // After reset the posterior is symmetric; both arms should be selected
  // over repeated draws.
  rng gen{5};
  int arm0 = 0;
  for (int i = 0; i < 1000; ++i) arm0 += policy.select(gen) == 0 ? 1 : 0;
  EXPECT_GT(arm0, 300);
  EXPECT_LT(arm0, 700);
  EXPECT_THROW(policy.update(9, 1), std::out_of_range);
  EXPECT_THROW(thompson_sampling{0}, std::invalid_argument);
}

// --- epsilon_greedy -----------------------------------------------------------------

TEST(epsilon_greedy, explores_at_rate_epsilon) {
  epsilon_greedy policy{2, 0.2};
  rng gen{6};
  // Make arm 0 clearly best first.
  for (int i = 0; i < 50; ++i) policy.update(0, 1);
  for (int i = 0; i < 50; ++i) policy.update(1, 0);
  int pulls_of_worse = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) pulls_of_worse += policy.select(gen) == 1 ? 1 : 0;
  // Exploration picks the worse arm half the time: rate ≈ ε/2 = 0.1.
  EXPECT_NEAR(pulls_of_worse / static_cast<double>(n), 0.1, 0.02);
}

TEST(epsilon_greedy, optimistic_initialization_tries_everything) {
  epsilon_greedy policy{3, 0.0};
  rng gen{7};
  std::vector<bool> tried(3, false);
  for (int i = 0; i < 3; ++i) {
    const std::size_t arm = policy.select(gen);
    tried[arm] = true;
    policy.update(arm, 0);  // disappointing reward moves on to the next arm
  }
  EXPECT_TRUE(tried[0]);
  EXPECT_TRUE(tried[1]);
  EXPECT_TRUE(tried[2]);
}

TEST(epsilon_greedy, validates_parameters) {
  EXPECT_THROW((epsilon_greedy{2, -0.1}), std::invalid_argument);
  EXPECT_THROW((epsilon_greedy{2, 1.1}), std::invalid_argument);
  EXPECT_THROW((epsilon_greedy{0, 0.1}), std::invalid_argument);
}

// --- random_bandit -----------------------------------------------------------------

TEST(random_bandit, uniform_pulls) {
  random_bandit policy{4};
  rng gen{8};
  std::vector<int> counts(4, 0);
  constexpr int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[policy.select(gen)];
  for (const int c : counts) EXPECT_NEAR(c, n / 4, 400);
}

}  // namespace
}  // namespace sgl::algo
