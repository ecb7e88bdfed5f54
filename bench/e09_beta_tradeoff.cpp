// Experiment E9 — the β tradeoff and the tuned-MWU comparison (§6).
//
// Claims: (a) "the closer β is to 1/2, the better the regret" — the 3δ
// bound shrinks, at the cost of a longer minimum horizon ln m/δ²;
// (b) an algorithm designer free to pick β can tune the effective learning
// rate to the horizon and recover the classic O(√(ln m/T)) Hedge regret,
// whereas the social dynamics is pinned to the group's β.
//
// We sweep β at two fixed horizons and print, as the yardstick, Hedge with
// the optimally tuned rate on the same reward stream.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_common.h"
#include "algo/full_info.h"
#include "core/experiment.h"
#include "core/theory.h"
#include "env/reward_model.h"
#include "scenario/scenario.h"
#include "support/parallel.h"
#include "support/stats.h"

namespace {

using namespace sgl;

/// Regret of a full-information policy on the bernoulli environment.
double hedge_regret(std::size_t m, double rate, const std::vector<double>& etas,
                    std::uint64_t horizon, std::uint64_t reps, std::uint64_t seed,
                    unsigned threads) {
  auto stats = parallel_reduce<running_stats>(
      reps, [] { return running_stats{}; },
      [&](running_stats& s, std::size_t rep) {
        rng env_gen = rng::from_stream(seed, rep);
        env::bernoulli_rewards environment{etas};
        algo::hedge policy{m, rate};
        std::vector<std::uint8_t> r(m);
        double reward_sum = 0.0;
        for (std::uint64_t t = 1; t <= horizon; ++t) {
          const auto dist = policy.distribution();
          environment.sample(t, env_gen, r);
          for (std::size_t j = 0; j < m; ++j) reward_sum += dist[j] * r[j];
          policy.update(r);
        }
        s.add(etas[0] - reward_sum / static_cast<double>(horizon));
      },
      [](running_stats& into, const running_stats& from) { into.merge(from); }, threads);
  return stats.mean();
}

int run(const bench::standard_options& options) {
  bench::print_banner(
      "E9: The beta tradeoff, vs horizon-tuned Hedge (Section 6)",
      "Claim: smaller beta -> smaller 3*delta bound but longer warm-up; a tuned "
      "learning rate achieves O(sqrt(ln m / T)).");

  constexpr std::size_t m = 10;
  const auto etas = env::two_level_etas(m, 0.85, 0.35);

  text_table table{{"T", "beta", "delta", "ln(m)/d^2", "Regret_inf", "bound 3d"}};

  for (const std::uint64_t horizon : {100ULL, 1000ULL}) {
    for (const double beta : {0.52, 0.55, 0.58, 0.62, 0.66, 0.70, 0.73}) {
      scenario::scenario_spec spec;
      spec.engine = scenario::engine_kind::infinite;
      spec.num_agents = 0;
      spec.params = core::theorem_params(m, beta);
      spec.environment.etas = etas;
      const core::dynamics_params& params = spec.params;
      core::run_config config;
      config.horizon = horizon;
      config.replications = options.replications;
      config.seed = options.seed;
      config.threads = options.threads;
      const core::regret_estimate est = bench::regret_of(spec, config);
      table.add_row({std::to_string(horizon), fmt(beta, 2), fmt(params.delta(), 3),
                     fmt(core::theory::min_horizon(m, beta), 1),
                     fmt_pm(est.regret.mean, est.regret.half_width),
                     fmt(core::theory::infinite_regret_bound(beta), 3)});
    }
    // Yardstick: Hedge at the horizon-optimal rate.
    const double rate = algo::hedge_optimal_rate(m, horizon);
    const double tuned = hedge_regret(m, rate, etas, horizon, options.replications,
                                      options.seed, options.threads);
    table.add_row({std::to_string(horizon), "tuned", fmt(rate, 3), "-",
                   fmt(tuned, 4),
                   fmt(std::sqrt(std::log(static_cast<double>(m)) /
                                 (2.0 * static_cast<double>(horizon))),
                       4)});
  }
  bench::emit(table, options);
  std::printf("Shape: at T=100 large beta wins (fast warm-up); at T=1000 small beta "
              "wins (small steady bound);\nthe tuned rate beats both, matching the "
              "designer-vs-group remark in Section 6.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = sgl::bench::make_standard_flags(
      "e09_beta_tradeoff", "Section 6: beta tradeoff and tuned-MWU yardstick", 150);
  sgl::bench::standard_options options;
  int exit_code = 0;
  if (!sgl::bench::parse_standard(flags, argc, argv, options, exit_code)) return exit_code;
  return run(options);
}
