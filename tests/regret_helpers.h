#pragma once

/// \file regret_helpers.h
/// Test shorthands for the §2.2 regret scalars of a harness run, shared by
/// the unit, integration and property tiers.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/params.h"
#include "core/probe.h"
#include "scenario/scenario.h"

namespace sgl::test {

/// A Bernoulli(etas) spec on the exact aggregate engine at population `n`,
/// or on the infinite (mean-field) engine when `n` is 0.
inline scenario::scenario_spec bernoulli_spec(const core::dynamics_params& params,
                                              std::uint64_t n, std::vector<double> etas) {
  scenario::scenario_spec spec;
  spec.engine = n == 0 ? scenario::engine_kind::infinite : scenario::engine_kind::aggregate;
  spec.num_agents = n;
  spec.params = params;
  spec.environment.etas = std::move(etas);
  return spec;
}

/// The scalar estimates of the `regret` probe among a run's merged probes.
inline core::regret_estimate regret_of(const core::probe_list& merged) {
  for (const auto& probe : merged) {
    if (const auto* regret = dynamic_cast<const core::regret_probe*>(probe.get())) {
      return core::to_regret_estimate(*regret);
    }
  }
  throw std::logic_error{"regret_of: the run has no regret probe"};
}

/// Runs `spec` through the scenario harness with the regret probe alone.
inline core::regret_estimate regret_of(const scenario::scenario_spec& spec,
                                       const core::run_config& config) {
  static const std::vector<std::string> probes{"regret"};
  return regret_of(scenario::run_probes(spec, config, probes));
}

}  // namespace sgl::test
