// Tests for the Monte-Carlo harness (core/experiment.h), driven the way
// every caller drives it: a scenario spec through scenario::run_probes, or
// the spec's engine factory through run_with_probes when the environment
// is not a spec family.

#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/infinite_dynamics.h"
#include "core/params.h"
#include "core/probe.h"
#include "env/reward_model.h"
#include "graph/graph.h"
#include "regret_helpers.h"
#include "scenario/scenario.h"

namespace sgl::core {
namespace {

using scenario::engine_kind;
using scenario::scenario_spec;
using test::regret_of;

const std::vector<std::string> k_trajectory{"trajectory"};

env_factory schedule_factory(std::vector<std::vector<std::uint8_t>> table) {
  return [table] { return std::make_unique<env::schedule_rewards>(table); };
}

dynamics_params make_params(std::size_t m, double mu, double beta) {
  dynamics_params p;
  p.num_options = m;
  p.mu = mu;
  p.beta = beta;
  return p;
}

/// A Bernoulli-environment spec on the given engine (population `n`; 0 for
/// the infinite engine).
scenario_spec make_spec(engine_kind engine, const dynamics_params& params, std::uint64_t n,
                        std::vector<double> etas) {
  scenario_spec spec;
  spec.engine = engine;
  spec.num_agents = n;
  spec.params = params;
  spec.environment.etas = std::move(etas);
  return spec;
}

TEST(infinite_regret, deterministic_schedule_matches_direct_simulation) {
  // On a fixed schedule the infinite dynamics is deterministic, so the
  // harness must reproduce a hand-rolled simulation exactly.
  const dynamics_params params = make_params(2, 0.1, 0.6);
  const std::vector<std::vector<std::uint8_t>> table{{1, 0}, {1, 1}, {0, 1}, {1, 0}};
  run_config config;
  config.horizon = 12;
  config.replications = 3;  // identical replications — CI must collapse
  config.seed = 42;

  // The schedule environment is not a spec family: the spec supplies the
  // engine, run_with_probes the harness.
  const regret_probe prototype;
  const probe* probes[] = {&prototype};
  const probe_list merged = run_with_probes(
      scenario::make_engine(make_spec(engine_kind::infinite, params, 0, {})),
      schedule_factory(table), config, probes);
  const regret_estimate est = regret_of(merged);

  // Direct simulation.
  infinite_dynamics dyn{params};
  env::schedule_rewards environment{table};
  rng dummy{0};
  std::vector<std::uint8_t> r(2);
  double reward_sum = 0.0;
  double best_mean_sum = 0.0;
  for (std::uint64_t t = 1; t <= config.horizon; ++t) {
    const auto p = dyn.distribution();
    environment.sample(t, dummy, r);
    reward_sum += p[0] * r[0] + p[1] * r[1];
    best_mean_sum += environment.best_mean(t);
    dyn.step(r);
  }
  const double expected_regret =
      (best_mean_sum - reward_sum) / static_cast<double>(config.horizon);

  EXPECT_NEAR(est.regret.mean, expected_regret, 1e-12);
  EXPECT_NEAR(est.regret.half_width, 0.0, 1e-12);  // deterministic
  EXPECT_EQ(est.replications, 3U);
}

TEST(infinite_regret, thread_count_does_not_change_result) {
  const dynamics_params params = theorem_params(4, 0.62);
  run_config config;
  config.horizon = 60;
  config.replications = 40;
  config.seed = 7;
  const scenario_spec spec =
      make_spec(engine_kind::infinite, params, 0, {0.8, 0.4, 0.4, 0.4});

  config.threads = 1;
  const regret_estimate one = regret_of(spec, config);
  config.threads = 8;
  const regret_estimate eight = regret_of(spec, config);

  EXPECT_DOUBLE_EQ(one.regret.mean, eight.regret.mean);
  EXPECT_DOUBLE_EQ(one.best_mass.mean, eight.best_mass.mean);
  EXPECT_DOUBLE_EQ(one.average_reward.mean, eight.average_reward.mean);
}

TEST(infinite_regret, nonuniform_start_biases_early_mass) {
  const dynamics_params params = theorem_params(2, 0.6);
  run_config config;
  config.horizon = 5;
  config.replications = 200;
  config.seed = 11;
  scenario_spec spec = make_spec(engine_kind::infinite, params, 0, {0.8, 0.4});

  const regret_estimate uniform = regret_of(spec, config);
  spec.start = {0.02, 0.98};  // nearly all mass on the bad option
  const regret_estimate biased = regret_of(spec, config);
  EXPECT_GT(biased.regret.mean, uniform.regret.mean);
  EXPECT_LT(biased.best_mass.mean, uniform.best_mass.mean);
}

TEST(finite_regret, engines_agree_within_noise) {
  const dynamics_params params = theorem_params(3, 0.65);
  run_config config;
  config.horizon = 80;
  config.replications = 150;
  config.seed = 13;
  const std::vector<double> etas{0.8, 0.4, 0.4};

  const regret_estimate agg =
      regret_of(make_spec(engine_kind::aggregate, params, 300, etas), config);
  const regret_estimate agent =
      regret_of(make_spec(engine_kind::agent_based, params, 300, etas), config);
  EXPECT_NEAR(agg.regret.mean, agent.regret.mean,
              agg.regret.half_width + agent.regret.half_width + 0.01);
}

TEST(finite_regret, learning_beats_no_learning) {
  // beta = alpha (signal-blind adoption) must do worse than the real rule
  // on the same environment.
  run_config config;
  config.horizon = 150;
  config.replications = 80;
  config.seed = 17;

  const dynamics_params learning = theorem_params(2, 0.65);
  dynamics_params blind = learning;
  blind.alpha = blind.beta;  // adopt regardless of the signal

  const regret_estimate with_signal =
      regret_of(make_spec(engine_kind::aggregate, learning, 500, {0.9, 0.3}), config);
  const regret_estimate without_signal =
      regret_of(make_spec(engine_kind::aggregate, blind, 500, {0.9, 0.3}), config);
  EXPECT_LT(with_signal.regret.mean + with_signal.regret.half_width,
            without_signal.regret.mean - without_signal.regret.half_width);
}

TEST(finite_regret, topology_runs_and_converges) {
  const dynamics_params params = theorem_params(2, 0.62);
  rng topo_gen{99};
  scenario_spec spec = make_spec(engine_kind::agent_based, params, 150, {0.85, 0.35});
  spec.topology.family = scenario::topology_spec::family_kind::watts_strogatz;
  spec.prebuilt_graph = std::make_shared<const graph::graph>(
      graph::graph::watts_strogatz(150, 3, 0.1, topo_gen));
  run_config config;
  config.horizon = 200;
  config.replications = 30;
  config.seed = 19;
  const regret_estimate est = regret_of(spec, config);
  EXPECT_GT(est.final_best_mass.mean, 0.5);
  EXPECT_LT(est.regret.mean, 0.5);
}

TEST(regret_runs, rejects_bad_configs) {
  const dynamics_params params = make_params(2, 0.1, 0.6);
  run_config config;
  config.horizon = 0;
  EXPECT_THROW(
      (void)regret_of(make_spec(engine_kind::infinite, params, 0, {0.5, 0.5}), config),
      std::invalid_argument);
  config.horizon = 10;
  config.replications = 0;
  EXPECT_THROW(
      (void)regret_of(make_spec(engine_kind::aggregate, params, 10, {0.5, 0.5}), config),
      std::invalid_argument);
  config.replications = 1;
  EXPECT_THROW((void)regret_of(make_spec(engine_kind::infinite, params, 0, {0.5, 0.5, 0.5}),
                               config),
               std::invalid_argument);  // m mismatch
  // The same mismatch straight through the runner (no spec validation).
  const regret_probe prototype;
  const probe* probes[] = {&prototype};
  EXPECT_THROW(
      (void)run_with_probes(
          scenario::make_engine(make_spec(engine_kind::infinite, params, 0, {})),
          scenario::make_environment(
              make_spec(engine_kind::infinite, params, 0, {0.5, 0.5, 0.5}).environment),
          config, probes),
      std::invalid_argument);
}

TEST(trajectory_curves, curve_shapes_and_lengths) {
  const dynamics_params params = theorem_params(3, 0.62);
  run_config config;
  config.horizon = 120;
  config.replications = 60;
  config.seed = 23;
  const std::vector<double> etas{0.8, 0.4, 0.4};

  const probe_list inf_probes = scenario::run_probes(
      make_spec(engine_kind::infinite, params, 0, etas), config, k_trajectory);
  const auto& inf = dynamic_cast<const trajectory_probe&>(*inf_probes[0]);
  EXPECT_EQ(inf.running_regret().length(), 120U);
  EXPECT_EQ(inf.best_mass().length(), 120U);
  EXPECT_EQ(inf.running_regret().replications(), 60U);
  // Learning: late best-mass above early best-mass.
  EXPECT_GT(inf.best_mass().mean(119), inf.best_mass().mean(0) + 0.2);
  // Regret curve settles below its early value.
  EXPECT_LT(inf.running_regret().mean(119), inf.running_regret().mean(5));

  const probe_list fin_probes = scenario::run_probes(
      make_spec(engine_kind::aggregate, params, 400, etas), config, k_trajectory);
  const auto& fin = dynamic_cast<const trajectory_probe&>(*fin_probes[0]);
  EXPECT_EQ(fin.best_mass().length(), 120U);
  EXPECT_GT(fin.best_mass().mean(119), 0.5);
  // min popularity stays strictly positive thanks to exploration.
  EXPECT_GT(fin.min_popularity().mean(119), 0.0);
}

TEST(trajectory_curves, switching_environment_tracks_new_best) {
  // After the switch the dynamics must recover mass on the new best option.
  dynamics_params params = theorem_params(2, 0.65);
  run_config config;
  config.horizon = 300;
  config.replications = 40;
  config.seed = 29;
  scenario_spec spec = make_spec(engine_kind::aggregate, params, 400, {0.85, 0.35});
  spec.environment.family = scenario::environment_spec::family_kind::switching;
  spec.environment.period = 150;
  const probe_list merged = scenario::run_probes(spec, config, k_trajectory);
  const auto& curves = dynamic_cast<const trajectory_probe&>(*merged[0]);
  // At t=150 the best option flips; best_mass (computed against the
  // *current* best) dips right after the switch and then recovers.
  EXPECT_GT(curves.best_mass().mean(140), 0.6);
  EXPECT_LT(curves.best_mass().mean(149), 0.5);
  EXPECT_GT(curves.best_mass().mean(295), 0.6);
}

}  // namespace
}  // namespace sgl::core
