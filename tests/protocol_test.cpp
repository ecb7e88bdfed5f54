#include "protocol/gossip_learner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/probe.h"
#include "scenario/scenario.h"
#include "support/stats.h"

namespace sgl::protocol {
namespace {

gossip_params make_gossip(std::size_t m, double mu, double beta) {
  gossip_params p;
  p.dynamics.num_options = m;
  p.dynamics.mu = mu;
  p.dynamics.beta = beta;
  p.round_interval = 1.0;
  return p;
}

/// A single-replication protocol run: `num_nodes` gossip learners facing
/// Bernoulli(etas) signals over the netsim default link model (one round of
/// latency per message, no jitter, no loss).
struct gossip_case {
  scenario::scenario_spec spec;
  core::run_config config;
};

gossip_case make_case(const gossip_params& params, std::vector<double> etas,
                      std::uint64_t num_nodes, std::uint64_t rounds, std::uint64_t seed) {
  gossip_case c;
  c.spec.engine = scenario::engine_kind::protocol;
  c.spec.num_agents = num_nodes;
  c.spec.params = params.dynamics;
  c.spec.environment.etas = std::move(etas);
  c.spec.protocol.round_interval = params.round_interval;
  c.spec.protocol.base_latency = 1.0;
  c.spec.protocol.sticky = params.sticky;
  c.spec.protocol.max_retries = params.max_retries;
  c.config.horizon = rounds;
  c.config.replications = 1;
  c.config.seed = seed;
  return c;
}

/// What the moved assertions read: the per-round best-option share (one
/// replication, so the trajectory mean is that run), the regret scalars,
/// wire cost and adoption.
struct gossip_outcome {
  std::vector<double> best_fraction;
  double average_regret = 0.0;
  double messages_per_round = 0.0;
  double drop_rate = 0.0;
  double committed_fraction = 0.0;        ///< mean over rounds
  double final_committed_fraction = 0.0;  ///< after the last round
};

gossip_outcome run_case(const gossip_case& c) {
  const std::vector<std::string> probes{"trajectory", "regret", "message_cost",
                                        "adoption"};
  const core::probe_list merged = scenario::run_probes(c.spec, c.config, probes);
  gossip_outcome out;
  const auto& curves = dynamic_cast<const core::trajectory_probe&>(*merged[0]);
  for (std::size_t t = 0; t < curves.best_mass().length(); ++t) {
    out.best_fraction.push_back(curves.best_mass().mean(t));
  }
  out.average_regret =
      dynamic_cast<const core::regret_probe&>(*merged[1]).regret_stats().mean();
  const core::probe_report cost = merged[2]->report();
  out.messages_per_round = cost.find_scalar("messages_per_round")->value;
  out.drop_rate = cost.find_scalar("drop_rate")->value;
  const core::probe_report adoption = merged[3]->report();
  out.committed_fraction = adoption.find_scalar("committed_fraction")->value;
  out.final_committed_fraction = adoption.find_scalar("final_committed_fraction")->value;
  return out;
}

double late_mean(const gossip_outcome& out, std::size_t from, std::size_t to) {
  running_stats late;
  for (std::size_t t = from; t < to; ++t) late.add(out.best_fraction[t]);
  return late.mean();
}

// --- gossip_learner ------------------------------------------------------------------

TEST(gossip_learner, validates_construction) {
  const posted_signals board{2};
  gossip_params params = make_gossip(2, 0.1, 0.6);
  EXPECT_NO_THROW(gossip_learner(params, &board));
  EXPECT_THROW(gossip_learner(params, nullptr), std::invalid_argument);
  params.round_interval = 0.0;
  EXPECT_THROW(gossip_learner(params, &board), std::invalid_argument);
  params = make_gossip(3, 0.1, 0.6);  // option-count mismatch with the board
  EXPECT_THROW(gossip_learner(params, &board), std::invalid_argument);
}

// --- the protocol under the harness -----------------------------------------
//
// Signals come from the environment's R^t (posted to every node each round)
// and nodes start uncommitted, as the dynamics_engine contract requires.

TEST(gossip_protocol, converges_to_best_channel) {
  const gossip_params params = make_gossip(3, 0.05, 0.65);
  const gossip_outcome result = run_case(make_case(params, {0.9, 0.3, 0.3}, 150, 150, 1));
  ASSERT_EQ(result.best_fraction.size(), 150U);
  EXPECT_GT(late_mean(result, 100, 150), 0.6);
  EXPECT_GT(result.messages_per_round, 0.0);
  EXPECT_LT(result.drop_rate, 1.0);  // messages were delivered
  EXPECT_LT(result.average_regret, 0.45);
}

TEST(gossip_protocol, survives_heavy_packet_loss) {
  const gossip_params params = make_gossip(2, 0.08, 0.65);
  gossip_case c = make_case(params, {0.9, 0.3}, 120, 200, 2);
  c.spec.protocol.drop_probability = 0.4;

  const gossip_outcome result = run_case(c);
  EXPECT_GT(result.drop_rate, 0.0);
  EXPECT_GT(late_mean(result, 150, 200), 0.55)
      << "loss slows but must not stop convergence";
}

TEST(gossip_protocol, sticky_mode_keeps_everyone_committed) {
  // Nodes start uncommitted; once committed, a sticky node never sits out
  // again, so the whole population ends committed.
  gossip_params params = make_gossip(2, 0.05, 0.6);
  params.sticky = true;
  const gossip_outcome result = run_case(make_case(params, {0.8, 0.4}, 80, 60, 3));
  EXPECT_DOUBLE_EQ(result.final_committed_fraction, 1.0);
}

TEST(gossip_protocol, non_sticky_mode_has_sitters) {
  const gossip_params params = make_gossip(2, 0.05, 0.6);
  const gossip_outcome result = run_case(make_case(params, {0.8, 0.4}, 80, 60, 3));
  // The mirror of the sticky test: the horizon mean is below 1 in both modes
  // (nodes start uncommitted), so the end state is what tells them apart.
  EXPECT_LT(result.final_committed_fraction, 0.999);
  EXPECT_GT(result.committed_fraction, 0.3);
}

TEST(gossip_protocol, tolerates_crashes) {
  const gossip_params params = make_gossip(2, 0.08, 0.65);
  gossip_case c = make_case(params, {0.9, 0.3}, 100, 160, 4);
  scenario::fault_action_spec crash;
  crash.kind = scenario::fault_action_spec::action_kind::crash_wave;
  crash.at = 40.0;
  crash.fraction = 0.3;
  c.spec.faults.actions.push_back(crash);

  EXPECT_GT(late_mean(run_case(c), 120, 160), 0.55);
}

TEST(gossip_protocol, works_on_ring_topology) {
  const gossip_params params = make_gossip(2, 0.05, 0.65);
  gossip_case c = make_case(params, {0.9, 0.3}, 60, 250, 5);
  c.spec.topology.family = scenario::topology_spec::family_kind::ring;

  EXPECT_GT(late_mean(run_case(c), 200, 250), 0.55);
}

TEST(gossip_protocol, retries_recover_adopter_conditioned_sampling) {
  // With retries the requester keeps asking until it finds a committed
  // neighbour (popularity over adopters); without them every uncommitted
  // reply falls back to a uniform option, injecting extra exploration and
  // flattening convergence.  Measured as late best-option share.
  gossip_params with_retries = make_gossip(2, 0.05, 0.65);
  with_retries.max_retries = 4;
  const gossip_outcome a = run_case(make_case(with_retries, {0.9, 0.3}, 150, 150, 7));

  gossip_params without_retries = make_gossip(2, 0.05, 0.65);
  without_retries.max_retries = 0;
  const gossip_outcome b = run_case(make_case(without_retries, {0.9, 0.3}, 150, 150, 7));

  EXPECT_GT(late_mean(a, 100, 150), late_mean(b, 100, 150) + 0.05);
  // Retries cost extra messages.
  EXPECT_GT(a.messages_per_round, b.messages_per_round);
}

TEST(gossip_protocol, deterministic_and_validated) {
  const gossip_params params = make_gossip(2, 0.1, 0.6);
  gossip_case c = make_case(params, {0.8, 0.4}, 40, 50, 6);

  const gossip_outcome a = run_case(c);
  const gossip_outcome b = run_case(c);
  EXPECT_EQ(a.best_fraction, b.best_fraction);
  EXPECT_EQ(a.messages_per_round, b.messages_per_round);

  c.spec.num_agents = 0;
  EXPECT_THROW((void)run_case(c), std::invalid_argument);
  c.spec.num_agents = 10;
  c.config.horizon = 0;
  EXPECT_THROW((void)run_case(c), std::invalid_argument);
  c.config.horizon = 10;
  scenario::fault_action_spec crash;
  crash.kind = scenario::fault_action_spec::action_kind::crash_wave;
  crash.at = 1.0;
  crash.fraction = 2.0;
  c.spec.faults.actions.push_back(crash);
  EXPECT_THROW((void)run_case(c), std::invalid_argument);
}

}  // namespace
}  // namespace sgl::protocol
