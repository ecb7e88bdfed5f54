// Experiment E14 — the distributed low-memory MWU on a sensor network
// (§1 and §6: "perhaps appropriate for low-power devices in distributed
// settings such as sensor networks or the internet-of-things").
//
// Each node stores one integer and runs the gossip protocol over a lossy,
// asynchronous network (discrete-event simulation).  We sweep packet loss
// and crash faults, reporting convergence, regret, and message cost.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/probe.h"
#include "core/theory.h"
#include "scenario/scenario.h"

namespace {

using namespace sgl;

constexpr std::size_t k_nodes = 200;
constexpr std::uint64_t k_rounds = 300;
constexpr std::uint64_t k_late_rounds = 50;  ///< "final" = mean over the last 50

struct case_spec {
  std::string name;
  double drop = 0.0;
  double crash_fraction = 0.0;
  bool sticky = false;
  bool use_grid = false;
  bool split_brain = false;
};

/// The gossip_* protocol spec one table row runs: fault cases become
/// `faults.*` actions (times in rounds), the torus a `topology.*` family.
scenario::scenario_spec make_case_spec(const case_spec& c) {
  using scenario::fault_action_spec;
  scenario::scenario_spec spec;
  spec.name = c.name;
  spec.engine = scenario::engine_kind::protocol;
  spec.num_agents = k_nodes;
  spec.params = core::theorem_params(3, 0.65);
  spec.environment.etas = {0.9, 0.4, 0.4};  // e.g. radio channels
  spec.protocol.base_latency = 0.05;
  spec.protocol.jitter_mean = 0.05;
  spec.protocol.drop_probability = c.drop;
  spec.protocol.sticky = c.sticky;
  if (c.use_grid) {
    spec.topology.family = scenario::topology_spec::family_kind::torus;
    spec.topology.rows = 20;
    spec.topology.cols = 10;
  }
  if (c.crash_fraction > 0.0) {
    fault_action_spec crash;
    crash.kind = fault_action_spec::action_kind::crash_wave;
    crash.at = 50.0;
    crash.fraction = c.crash_fraction;
    spec.faults.actions.push_back(std::move(crash));
  }
  if (c.split_brain) {
    fault_action_spec cut;
    cut.kind = fault_action_spec::action_kind::partition;
    cut.at = 80.0;
    cut.until = 160.0;
    for (std::uint64_t id = 0; id < k_nodes / 2; ++id) cut.targets.push_back(id);
    spec.faults.actions.push_back(std::move(cut));
  }
  return spec;
}

int run(const bench::standard_options& options) {
  bench::print_banner(
      "E14: Low-memory distributed MWU on a simulated sensor network (Sections 1, 6)",
      "Claim: one-integer-per-node gossip implements the dynamics; convergence "
      "survives packet loss and crash faults, at ~2 messages/node/round.");

  const std::vector<case_spec> cases{
      {"complete, lossless", 0.0, 0.0, false, false},
      {"complete, 10% loss", 0.1, 0.0, false, false},
      {"complete, 30% loss", 0.3, 0.0, false, false},
      {"complete, 50% loss", 0.5, 0.0, false, false},
      {"complete, 20% crash @ r50", 0.1, 0.2, false, false},
      {"complete, sticky mode", 0.1, 0.0, true, false},
      {"torus 20x10, 10% loss", 0.1, 0.0, false, true},
      {"split-brain r80..160", 0.1, 0.0, false, false, true},
  };

  // Each replication is a full discrete-event simulation; a few suffice.
  core::run_config config;
  config.horizon = k_rounds;
  config.replications = std::max<std::uint64_t>(3, options.replications / 10);
  config.seed = options.seed;
  config.threads = options.threads;
  const std::vector<std::string> probes{"regret", "message_cost", "trajectory"};

  text_table table{{"scenario", "final best frac", "avg regret", "msgs/node/round",
                    "kB total", "drop rate", "converged"}};

  for (const auto& c : cases) {
    const core::probe_list merged = scenario::run_probes(make_case_spec(c), config, probes);
    const auto& regret = dynamic_cast<const core::regret_probe&>(*merged[0]);
    const core::probe_report cost = merged[1]->report();
    const auto& curves = dynamic_cast<const core::trajectory_probe&>(*merged[2]);

    double late = 0.0;
    for (std::uint64_t t = k_rounds - k_late_rounds; t < k_rounds; ++t) {
      late += curves.best_mass().mean(t);
    }
    late /= static_cast<double>(k_late_rounds);
    const double bytes_per_round = cost.find_scalar("bytes_per_round")->value;
    table.add_row({c.name, fmt(late, 3), fmt(regret.regret_stats().mean(), 4),
                   fmt(cost.find_scalar("messages_per_node_round")->value, 2),
                   fmt(bytes_per_round * static_cast<double>(k_rounds) / 1024.0, 0),
                   fmt(cost.find_scalar("drop_rate")->value, 3),
                   bench::verdict(late > 0.6)});
  }
  bench::emit(table, options);
  std::printf("N = %zu nodes, %llu rounds, m = 3 'channels', eta = (0.9, 0.4, 0.4), "
              "beta = 0.65; 'final best frac' averages the last %llu rounds.\nShape: "
              "loss and crashes slow convergence but do not break it; per-node state "
              "is a single int throughout.\n",
              k_nodes, static_cast<unsigned long long>(k_rounds),
              static_cast<unsigned long long>(k_late_rounds));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = sgl::bench::make_standard_flags(
      "e14_sensor_network", "Distributed MWU over a lossy sensor network", 30);
  sgl::bench::standard_options options;
  int exit_code = 0;
  if (!sgl::bench::parse_standard(flags, argc, argv, options, exit_code)) return exit_code;
  return run(options);
}
