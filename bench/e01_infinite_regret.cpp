// Experiment E1 — Theorem 4.3 (infinite-population regret).
//
// Claim: for ½ < β ≤ e/(e+1), μ ≤ δ²/6, and every T ≥ ln m/δ²,
//   Regret∞(T) = η₁ − (1/T)·Σ_t Σ_j E[P^{t−1}_j R^t_j] ≤ 3δ,  δ = ln(β/(1−β)).
//
// We start from the registered "theorem-infinite" scenario, sweep its m and
// β overrides, and print measured regret at 1×, 2×, 4× and 8× the theorem's
// minimum horizon next to the 3δ bound.

#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "core/theory.h"
#include "env/reward_model.h"
#include "scenario/registry.h"

namespace {

using namespace sgl;

int run(const bench::standard_options& options) {
  bench::print_banner("E1: Regret of the infinite-population dynamics (Theorem 4.3)",
                      "Claim: Regret_inf(T) <= 3*delta for all T >= ln(m)/delta^2, "
                      "with mu = delta^2/6 and eta = (0.85, 0.35, ...).");

  text_table table{{"m", "beta", "delta", "T*", "T", "Regret_inf(T)", "bound 3d",
                    "within"}};

  for (const std::size_t m : {std::size_t{2}, std::size_t{10}, std::size_t{50}}) {
    for (const double beta : {0.55, 0.62, 0.73}) {
      scenario::scenario_spec spec = scenario::get_scenario("theorem-infinite");
      spec.params = core::theorem_params(m, beta);
      spec.environment.etas = env::two_level_etas(m, 0.85, 0.35);

      const double delta = spec.params.delta();
      const double bound = core::theory::infinite_regret_bound(beta);
      const auto t_star = static_cast<std::uint64_t>(
          std::ceil(std::max(core::theory::min_horizon(m, beta), 8.0)));

      for (const std::uint64_t multiple : {1ULL, 2ULL, 4ULL, 8ULL}) {
        core::run_config config;
        config.horizon = t_star * multiple;
        config.replications = options.replications;
        config.seed = options.seed;
        config.threads = options.threads;
        const core::regret_estimate est = bench::regret_of(spec, config);
        table.add_row({std::to_string(m), fmt(beta, 2), fmt(delta, 3),
                       std::to_string(t_star), std::to_string(config.horizon),
                       fmt_pm(est.regret.mean, est.regret.half_width),
                       fmt(bound, 3),
                       bench::verdict(est.regret.mean - est.regret.half_width <= bound)});
      }
    }
  }
  bench::emit(table, options);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = sgl::bench::make_standard_flags(
      "e01_infinite_regret", "Theorem 4.3: infinite-population regret <= 3 delta", 200);
  sgl::bench::standard_options options;
  int exit_code = 0;
  if (!sgl::bench::parse_standard(flags, argc, argv, options, exit_code)) return exit_code;
  return run(options);
}
