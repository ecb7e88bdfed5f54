// Experiment E11 — network-restricted sampling (§6, open problem 1).
//
// "The first is to extend our results to the social network setting where
// individuals can only sample in step (1) from their neighbors. The
// question here would be whether, and to what extent, the efficiency of
// the group remains as a function of the network topology."
//
// We run the agent-based dynamics with neighbour-only sampling over the
// standard topology zoo at equal N, constructing every case through the
// scenario layer (the ring/small-world/two-cliques/torus cases are the
// registered scenarios verbatim; the rest override the topology family).
// Reported per topology: regret, final best-option mass, and the
// `hitting_time` probe at eps = 0.2: the first step at which a
// replication's best-option mass reaches 80%, averaged over the
// replications that reach it (with their count when some never do).  The
// level sits below the ~0.89 plateau of the dense topologies on purpose:
// the mean curve crosses 90% on that plateau, so noise decided the step.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"

namespace {

using namespace sgl;

constexpr std::uint64_t k_horizon = 400;
constexpr double k_hit_eps = 0.2;  // hitting level 1 − eps = 80% mass

struct topo_case {
  std::string label;
  scenario::scenario_spec spec;
};

int run(const bench::standard_options& options) {
  bench::print_banner(
      "E11: Learning over social-network topologies (Section 6, future work)",
      "Question: how does group efficiency degrade when sampling is restricted "
      "to network neighbours?");

  // Every case is the registered "ring" scenario's population/environment
  // with a different topology; the named topology scenarios are used as-is.
  const scenario::scenario_spec base = scenario::get_scenario("ring");
  const std::size_t n = static_cast<std::size_t>(base.num_agents);
  using family = scenario::topology_spec::family_kind;

  std::vector<topo_case> cases;
  {
    scenario::scenario_spec mixed = base;
    mixed.topology.family = family::none;
    cases.push_back({"fully mixed (paper)", std::move(mixed)});
  }
  {
    scenario::scenario_spec complete = base;
    complete.topology.family = family::complete;
    cases.push_back({"complete graph", std::move(complete)});
  }
  {
    scenario::scenario_spec er = base;
    er.topology.family = family::erdos_renyi;
    er.topology.edge_probability = 0.011;
    cases.push_back({"Erdos-Renyi p=0.011", std::move(er)});
  }
  {
    scenario::scenario_spec ba = base;
    ba.topology.family = family::barabasi_albert;
    ba.topology.degree = 5;
    cases.push_back({"Barabasi-Albert m=5", std::move(ba)});
  }
  cases.push_back({"Watts-Strogatz k=5 p=0.1", scenario::get_scenario("small-world")});
  cases.push_back({"torus 30x30", scenario::get_scenario("torus")});
  cases.push_back({"ring", base});
  {
    scenario::scenario_spec star = base;
    star.topology.family = family::star;
    cases.push_back({"star", std::move(star)});
  }
  cases.push_back({"two cliques, 1 bridge", scenario::get_scenario("two-cliques")});

  core::run_config config;
  config.horizon = k_horizon;
  config.replications = options.replications;
  config.seed = options.seed;
  config.threads = options.threads;
  const std::vector<std::string> probes{
      "regret", "hitting_time(eps=" + fmt(k_hit_eps, 1) + ")"};

  text_table table{{"topology", "avg degree", "regret", "final best mass",
                    "t to 80% (hits)"}};

  for (auto& c : cases) {
    // Build each graph once, shared by the degree column and the run.
    std::string degree = "N-1";
    if (c.spec.topology.family != family::none) {
      c.spec.prebuilt_graph = std::make_shared<const graph::graph>(
          scenario::build_topology(c.spec.topology, n));
      degree = fmt(c.spec.prebuilt_graph->average_degree(), 1);
    }
    const core::probe_list merged = scenario::run_probes(c.spec, config, probes);
    c.spec.prebuilt_graph.reset();
    const core::regret_estimate scalars = bench::regret_of(merged);
    const auto& hitting = dynamic_cast<const core::hitting_time_probe&>(*merged[1]);
    const running_stats& times = hitting.hitting_time_stats();
    std::string hit = "never";
    if (times.count() > 0) {
      const mean_ci t_hit = confidence_interval(times);
      hit = fmt_pm(t_hit.mean, t_hit.half_width, 1);
      if (times.count() < hitting.hit_fraction_stats().count()) {
        hit += " (" + std::to_string(times.count()) + "/" +
               std::to_string(hitting.hit_fraction_stats().count()) + ")";
      }
    }
    table.add_row({c.label, degree,
                   fmt_pm(scalars.regret.mean, scalars.regret.half_width),
                   fmt(scalars.final_best_mass.mean, 3), hit});
  }
  bench::emit(table, options);
  std::printf("N = %zu, T = %llu, beta = 0.65, eta = (0.85, 0.35); 't to 80%%' is the "
              "hitting_time probe at eps = %.1f, averaged over the replications that "
              "hit (their count in brackets when not all do).\nShape: dense and "
              "expander graphs, and two dense cliques joined by one bridge, track the "
              "fully mixed dynamics; the sparse low-degree graphs (torus, ring, star) "
              "pay more regret and end with less best-option mass, and the ring also "
              "learns more slowly.\n",
              n, static_cast<unsigned long long>(k_horizon), k_hit_eps);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = sgl::bench::make_standard_flags(
      "e11_topologies", "Section 6: network-restricted sampling across topologies", 30);
  sgl::bench::standard_options options;
  int exit_code = 0;
  if (!sgl::bench::parse_standard(flags, argc, argv, options, exit_code)) return exit_code;
  return run(options);
}
