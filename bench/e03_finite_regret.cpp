// Experiment E3 — Theorem 4.4 (finite-population regret).
//
// Claim: for N large enough and ln m/δ² ≤ T ≤ N¹⁰/(mδ),
//   Regret_N(T) ≤ 6δ.
//
// We start from the registered "theorem-finite" scenario and sweep its N
// override over four orders of magnitude (exact aggregate engine, O(m) per
// step) at T* and 10·T*, with the registered "theorem-infinite" scenario as
// the N→∞ reference.  The paper's explicit N-thresholds are astronomically
// conservative; the table shows the 6δ bound already holding at small N —
// a finding EXPERIMENTS.md records.

#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "core/theory.h"
#include "scenario/registry.h"

namespace {

using namespace sgl;

int run(const bench::standard_options& options) {
  bench::print_banner(
      "E3: Regret of the finite-population dynamics (Theorem 4.4)",
      "Claim: Regret_N(T) <= 6*delta for T in [ln(m)/delta^2, N^10/(m delta)].");

  scenario::scenario_spec finite_spec = scenario::get_scenario("theorem-finite");
  const scenario::scenario_spec infinite_spec =
      scenario::get_scenario("theorem-infinite");
  const core::dynamics_params& params = finite_spec.params;
  const std::size_t m = params.num_options;
  const double beta = params.beta;
  const double bound = core::theory::finite_regret_bound(beta);
  const auto t_star = static_cast<std::uint64_t>(
      std::ceil(std::max(core::theory::min_horizon(m, beta), 8.0)));

  text_table table{{"N", "T", "Regret_N(T)", "Regret_inf(T)", "bound 6d",
                    "paper N-cond", "within"}};

  for (const std::uint64_t multiple : {1ULL, 10ULL}) {
    core::run_config config;
    config.horizon = t_star * multiple;
    config.replications = options.replications;
    config.seed = options.seed;
    config.threads = options.threads;

    const core::regret_estimate infinite = bench::regret_of(infinite_spec, config);

    for (const std::uint64_t n :
         {100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL}) {
      finite_spec.num_agents = n;
      const core::regret_estimate finite = bench::regret_of(finite_spec, config);
      table.add_row(
          {std::to_string(n), std::to_string(config.horizon),
           fmt_pm(finite.regret.mean, finite.regret.half_width),
           fmt_pm(infinite.regret.mean, infinite.regret.half_width), fmt(bound, 3),
           bench::verdict(core::theory::theorem44_population_condition(
               params, static_cast<double>(n))),
           bench::verdict(finite.regret.mean - finite.regret.half_width <= bound)});
    }
  }
  bench::emit(table, options);
  std::printf("Note: delta = %.3f, mu = %.4f, T* = %llu; eta = (0.85, 0.35 x %zu).\n",
              params.delta(), params.mu, static_cast<unsigned long long>(t_star), m - 1);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = sgl::bench::make_standard_flags(
      "e03_finite_regret", "Theorem 4.4: finite-population regret <= 6 delta", 200);
  sgl::bench::standard_options options;
  int exit_code = 0;
  if (!sgl::bench::parse_standard(flags, argc, argv, options, exit_code)) return exit_code;
  return run(options);
}
