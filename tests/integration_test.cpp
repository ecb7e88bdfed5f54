// Cross-module integration tests: epoch restarts, the Ellison–Fudenberg
// reduction end-to-end, group-vs-individual learning, ablations, and the
// gossip protocol against the synchronous dynamics it implements.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "algo/bandit.h"
#include "core/aggregate_dynamics.h"
#include "core/experiment.h"
#include "core/finite_dynamics.h"
#include "core/params.h"
#include "core/probe.h"
#include "core/theory.h"
#include "env/ef_model.h"
#include "env/reward_model.h"
#include "regret_helpers.h"
#include "scenario/scenario.h"
#include "support/rng.h"
#include "support/stats.h"

namespace sgl {
namespace {

using test::bernoulli_spec;
using test::regret_of;

TEST(integration, epoch_restart_preserves_learning) {
  // The large-T proof restarts analysis at epoch boundaries from the current
  // adopter counts.  Exercise that pathway: run, snapshot, restart, run.
  const core::dynamics_params params = core::theorem_params(3, 0.62);
  rng process_gen = rng::from_stream(1, 0);
  rng env_gen = rng::from_stream(1, 1);
  env::bernoulli_rewards environment{{0.85, 0.35, 0.35}};
  std::vector<std::uint8_t> r(3);

  core::aggregate_dynamics first_epoch{params, 10000};
  for (std::uint64_t t = 1; t <= 200; ++t) {
    environment.sample(t, env_gen, r);
    first_epoch.step(r, process_gen);
  }
  const double mass_at_boundary = first_epoch.popularity()[0];
  EXPECT_GT(mass_at_boundary, 0.5);

  core::aggregate_dynamics second_epoch{params, 10000};
  const std::vector<std::uint64_t> counts(first_epoch.adopter_counts().begin(),
                                          first_epoch.adopter_counts().end());
  second_epoch.reset(counts);
  EXPECT_NEAR(second_epoch.popularity()[0], mass_at_boundary, 1e-12);

  running_stats late;
  for (std::uint64_t t = 201; t <= 400; ++t) {
    environment.sample(t, env_gen, r);
    second_epoch.step(r, process_gen);
    late.add(second_epoch.popularity()[0]);
  }
  EXPECT_GT(late.mean(), 0.6) << "learning survives the epoch restart";
}

TEST(integration, ef_direct_and_reduced_models_agree) {
  // E13's claim in miniature: simulate the continuous-shock EF model
  // directly, and the reduced binary (η, α, β) dynamics, and compare the
  // long-run popularity of the better option.
  env::ef_params ef;
  ef.mean1 = 0.65;
  ef.mean2 = 0.45;
  ef.reward_sd = 0.25;
  ef.shock_sd = 0.2;
  const env::ef_reduction reduced = env::reduce_ef_model(ef);

  constexpr std::size_t n = 400;
  constexpr std::uint64_t horizon = 250;
  constexpr int reps = 60;
  const double mu = 0.05;

  running_stats direct_mass;
  running_stats reduced_mass;
  for (int rep = 0; rep < reps; ++rep) {
    // Direct shock-level simulation.
    env::ef_direct_dynamics direct{ef, n, mu};
    rng reward_gen = rng::from_stream(2, static_cast<std::uint64_t>(3 * rep));
    rng pop_gen = rng::from_stream(2, static_cast<std::uint64_t>(3 * rep + 1));
    running_stats late_direct;
    for (std::uint64_t t = 1; t <= horizon; ++t) {
      direct.step(reward_gen, pop_gen);
      if (t > horizon / 2) late_direct.add(direct.popularity()[0]);
    }
    direct_mass.add(late_direct.mean());

    // Reduced binary dynamics on exclusive rewards with the mapped (α, β).
    core::dynamics_params params;
    params.num_options = 2;
    params.mu = mu;
    params.beta = reduced.beta;
    params.alpha = reduced.alpha;
    core::finite_dynamics binary{params, n};
    env::exclusive_rewards environment{{reduced.eta1, reduced.eta2}};
    rng env_gen = rng::from_stream(2, static_cast<std::uint64_t>(3 * rep + 2));
    rng bin_gen = rng::from_stream(3, static_cast<std::uint64_t>(rep));
    std::vector<std::uint8_t> r(2);
    running_stats late_reduced;
    for (std::uint64_t t = 1; t <= horizon; ++t) {
      environment.sample(t, env_gen, r);
      binary.step(r, bin_gen);
      if (t > horizon / 2) late_reduced.add(binary.popularity()[0]);
    }
    reduced_mass.add(late_reduced.mean());
  }
  // Both should favour option 1 and agree closely on average.
  EXPECT_GT(direct_mass.mean(), 0.55);
  EXPECT_GT(reduced_mass.mean(), 0.55);
  EXPECT_NEAR(direct_mass.mean(), reduced_mass.mean(), 0.06);
}

TEST(integration, group_learning_beats_population_of_random_bandits) {
  // The group's per-step expected reward vs N independent uniform players.
  const core::dynamics_params params = core::theorem_params(4, 0.62);
  const std::vector<double> etas{0.85, 0.35, 0.35, 0.35};
  core::run_config config;
  config.horizon = 200;
  config.replications = 60;
  config.seed = 5;
  const core::regret_estimate group = regret_of(bernoulli_spec(params, 2000, etas), config);

  // Uniform players earn mean(etas) per step forever.
  double uniform_reward = 0.0;
  for (const double eta : etas) uniform_reward += eta / 4.0;
  EXPECT_GT(group.average_reward.mean, uniform_reward + 0.1);
}

TEST(integration, group_dynamics_competitive_with_individual_ucb_population) {
  // A population of independent UCB1 learners (each on its own bandit) vs
  // the social group on the same signals: over a short horizon the copying
  // dynamics must reach a comparable average reward (the paper's pitch is
  // that it does so with *no per-agent memory*).
  const std::vector<double> etas{0.85, 0.35, 0.35, 0.35};
  constexpr std::uint64_t horizon = 150;
  constexpr int reps = 40;
  constexpr std::size_t n = 200;

  running_stats group_reward;
  running_stats ucb_reward;
  for (int rep = 0; rep < reps; ++rep) {
    // Group.
    const core::dynamics_params params = core::theorem_params(4, 0.62);
    core::finite_dynamics group{params, n};
    env::bernoulli_rewards environment{etas};
    rng env_gen = rng::from_stream(6, static_cast<std::uint64_t>(2 * rep));
    rng group_gen = rng::from_stream(6, static_cast<std::uint64_t>(2 * rep + 1));
    std::vector<std::uint8_t> r(4);
    double g_total = 0.0;
    for (std::uint64_t t = 1; t <= horizon; ++t) {
      const auto q = group.popularity();
      environment.sample(t, env_gen, r);
      for (std::size_t j = 0; j < 4; ++j) g_total += q[j] * r[j];
      group.step(r, group_gen);
    }
    group_reward.add(g_total / static_cast<double>(horizon));

    // Independent UCB1 players, same reward stream.
    std::vector<algo::ucb1> players(n, algo::ucb1{4});
    rng env_gen2 = rng::from_stream(6, static_cast<std::uint64_t>(2 * rep));
    rng players_gen = rng::from_stream(7, static_cast<std::uint64_t>(rep));
    double u_total = 0.0;
    for (std::uint64_t t = 1; t <= horizon; ++t) {
      environment.sample(t, env_gen2, r);
      for (auto& player : players) {
        const std::size_t arm = player.select(players_gen);
        player.update(arm, r[arm]);
        u_total += static_cast<double>(r[arm]) / static_cast<double>(n);
      }
    }
    ucb_reward.add(u_total / static_cast<double>(horizon));
  }
  // Memoryless copying must land within 10% of the full-memory UCB fleet.
  EXPECT_GT(group_reward.mean(), ucb_reward.mean() - 0.1);
}

TEST(integration, ablations_fail_where_the_paper_says_they_fail) {
  // §3: sampling-only or adoption-only is not enough.
  const std::vector<double> etas{0.85, 0.35};
  core::run_config config;
  config.horizon = 300;
  config.replications = 80;
  config.seed = 8;

  const core::regret_estimate full =
      regret_of(bernoulli_spec(core::theorem_params(2, 0.65), 2000, etas), config);

  // Pure copying: adoption blind to signals (β = α = 1).
  core::dynamics_params copy_only;
  copy_only.num_options = 2;
  copy_only.mu = 0.0;
  copy_only.beta = 1.0;
  copy_only.alpha = 1.0;
  const core::regret_estimate copying = regret_of(bernoulli_spec(copy_only, 2000, etas), config);

  // No social sampling: μ = 1 (uniform consideration forever).
  core::dynamics_params no_social;
  no_social.num_options = 2;
  no_social.mu = 1.0;
  no_social.beta = 0.65;
  const core::regret_estimate solo = regret_of(bernoulli_spec(no_social, 2000, etas), config);

  EXPECT_LT(full.regret.mean, copying.regret.mean - copying.regret.half_width)
      << "signal-blind copying cannot identify the best option";
  EXPECT_LT(full.regret.mean, solo.regret.mean - solo.regret.half_width)
      << "without social sampling the population never concentrates";
  // Pure copying fixates at the uniform average reward in expectation.
  EXPECT_NEAR(copying.average_reward.mean, 0.6, 0.05);
}

TEST(integration, gossip_protocol_matches_synchronous_dynamics) {
  // The asynchronous protocol and the synchronous finite dynamics are the
  // same algorithm; their converged best-option shares must be similar.
  const std::vector<double> etas{0.85, 0.35};
  const core::dynamics_params params = core::theorem_params(2, 0.65);

  // One protocol run: 300 nodes, 200 rounds, over the netsim default link
  // model (one round of latency per message).
  scenario::scenario_spec gossip;
  gossip.engine = scenario::engine_kind::protocol;
  gossip.num_agents = 300;
  gossip.params = params;
  gossip.environment.etas = etas;
  gossip.protocol.base_latency = 1.0;
  core::run_config gossip_config;
  gossip_config.horizon = 200;
  gossip_config.replications = 1;
  gossip_config.seed = 9;
  const std::vector<std::string> probes{"trajectory"};
  const core::probe_list async = scenario::run_probes(gossip, gossip_config, probes);
  const auto& async_curves = dynamic_cast<const core::trajectory_probe&>(*async[0]);
  running_stats async_late;
  for (std::size_t t = 150; t < 200; ++t) async_late.add(async_curves.best_mass().mean(t));

  core::run_config config;
  config.horizon = 200;
  config.replications = 40;
  config.seed = 10;
  const core::regret_estimate sync = regret_of(bernoulli_spec(params, 300, etas), config);

  EXPECT_NEAR(async_late.mean(), sync.final_best_mass.mean, 0.15);
  EXPECT_GT(async_late.mean(), 0.6);
}

TEST(integration, regret_estimate_consistent_with_theory_kit) {
  // End-to-end: parameters built by theorem_params satisfy the hypotheses,
  // and the measured regret honours the matching bound.
  for (const double beta : {0.58, 0.66}) {
    const core::dynamics_params params = core::theorem_params(6, beta);
    ASSERT_TRUE(params.satisfies_theorem_conditions());
    core::run_config config;
    config.horizon = static_cast<std::uint64_t>(
        std::ceil(std::max(core::theory::min_horizon(6, beta), 10.0)));
    config.replications = 80;
    config.seed = 11;
    const core::regret_estimate est =
        regret_of(bernoulli_spec(params, 20000, env::two_level_etas(6, 0.85, 0.35)), config);
    EXPECT_LE(est.regret.mean - est.regret.half_width,
              core::theory::finite_regret_bound(beta));
  }
}

}  // namespace
}  // namespace sgl
