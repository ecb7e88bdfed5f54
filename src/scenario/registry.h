#pragma once

/// \file registry.h
/// The catalog of named scenarios.  Each entry is a complete scenario_spec
/// keyed by a stable name; callers fetch a spec, override whatever fields
/// their sweep varies (horizon, N, β, …), and hand it to scenario::run_probes.
/// The CLI lists and runs these by name; the bench drivers and examples
/// start from them instead of hand-rolling setup.

#include <span>
#include <string_view>

#include "scenario/scenario.h"

namespace sgl::scenario {

/// Every registered scenario, in a stable, documented order.
[[nodiscard]] std::span<const scenario_spec> all_scenarios();

/// Looks a scenario up by name; nullptr when unknown.
[[nodiscard]] const scenario_spec* find_scenario(std::string_view name) noexcept;

/// Looks a scenario up by name; throws std::invalid_argument (listing the
/// known names) when unknown.  Returns a copy, ready to override.
[[nodiscard]] scenario_spec get_scenario(std::string_view name);

}  // namespace sgl::scenario
