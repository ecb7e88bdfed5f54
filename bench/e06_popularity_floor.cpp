// Experiment E6 — the popularity floor of §4.3.2.
//
// Claim: with probability ≥ 1 − 6m/N¹⁰ at every step, every option keeps
//   Q^t_j ≥ ζ = μ(1−β)/(4m),
// which is what lets the large-T analysis restart epochs from a ζ-floored
// distribution.  We run long horizons (20 epochs) through the generic
// probe runner with the popularity_floor probe (the "Lemma audit" metric)
// and report the worst min-popularity seen and the per-step violation
// frequency.  The zeta*N column is the floor counted in agents: where it is
// below one, the floor cannot be met short of every option keeping an
// adopter at all times, and the row lies outside the large-N regime the
// lemma is stated for.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/probe.h"
#include "core/theory.h"
#include "env/reward_model.h"
#include "scenario/scenario.h"
#include "support/json.h"

namespace {

using namespace sgl;

int run(const bench::standard_options& options) {
  bench::print_banner(
      "E6: Popularity floor Q^t_j >= mu(1-beta)/(4m) (Section 4.3.2)",
      "Claim: w.h.p. no option's popularity ever falls below zeta; epochs can "
      "restart from a zeta-floored state.");

  text_table table{{"m", "beta", "N", "zeta", "zeta*N", "epoch len", "T",
                    "worst min Q", "viol. rate", "holds"}};

  for (const std::size_t m : {std::size_t{2}, std::size_t{10}}) {
    for (const std::uint64_t n : {1000ULL, 10000ULL, 100000ULL}) {
      constexpr double beta = 0.62;
      scenario::scenario_spec spec;
      spec.engine = scenario::engine_kind::aggregate;
      spec.num_agents = n;
      spec.params = core::theorem_params(m, beta);
      spec.environment.etas = env::two_level_etas(m, 0.85, 0.35);
      const core::dynamics_params& params = spec.params;
      const double zeta = core::theory::popularity_floor(m, params.mu, beta);
      const double epoch = core::theory::epoch_length(m, params.mu, beta);
      const auto horizon = static_cast<std::uint64_t>(std::ceil(20.0 * epoch));

      core::run_config config;
      config.horizon = horizon;
      config.replications = options.replications;
      config.seed = options.seed;
      config.threads = options.threads;
      // json_number round-trips exactly, so the probe sees zeta bit for bit.
      const std::vector<std::string> probes{"popularity_floor(floor=" + json_number(zeta) +
                                            ")"};
      const core::probe_list merged = scenario::run_probes(spec, config, probes);
      const auto& floor =
          dynamic_cast<const core::popularity_floor_probe&>(*merged[0]);

      table.add_row({std::to_string(m), fmt(beta, 2), std::to_string(n),
                     fmt_sci(zeta, 2), fmt(zeta * static_cast<double>(n), 2),
                     fmt(epoch, 1), std::to_string(horizon),
                     fmt_sci(floor.min_popularity_stats().min(), 2),
                     fmt(floor.violation_rate_stats().mean(), 4),
                     bench::verdict(floor.violation_rate_stats().mean() < 0.05)});
    }
  }
  bench::emit(table, options);
  std::printf("zeta*N is the floor in agents; a row with zeta*N < 1 lies outside the "
              "large-N regime of Section 4.3.2, so its verdict does not test the lemma.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = sgl::bench::make_standard_flags(
      "e06_popularity_floor", "Section 4.3.2: popularity never drops below zeta", 60);
  sgl::bench::standard_options options;
  int exit_code = 0;
  if (!sgl::bench::parse_standard(flags, argc, argv, options, exit_code)) return exit_code;
  return run(options);
}
