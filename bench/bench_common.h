#pragma once

/// \file bench_common.h
/// Shared scaffolding for the experiment binaries (bench/e01..e14): a
/// standard flag set, a header banner tying the binary to its paper claim,
/// and small helpers.  Every binary accepts --reps/--seed/--threads/--quick
/// and prints the table or series its experiment reproduces; EXPERIMENTS.md
/// records the measured-vs-bound outcomes.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/probe.h"
#include "scenario/scenario.h"
#include "support/flags.h"
#include "support/table.h"

namespace sgl::bench {

struct standard_options {
  std::uint64_t replications = 0;
  std::uint64_t seed = 0;
  unsigned threads = 0;
  bool quick = false;
  bool csv = false;
};

/// Builds the common flag set.  `default_reps` is the full-fidelity default;
/// --quick divides it by 4 (min 8).
inline flag_set make_standard_flags(const std::string& program,
                                    const std::string& description,
                                    std::int64_t default_reps) {
  flag_set flags{program, description};
  flags.add_int64("reps", default_reps, "Monte-Carlo replications");
  flags.add_int64("seed", 1, "master RNG seed");
  flags.add_int64("threads", 0, "worker threads (0 = all cores)");
  flags.add_bool("quick", false, "reduced replication count");
  flags.add_bool("csv", false, "also emit the table as CSV");
  return flags;
}

/// Parses and extracts the standard options; returns false if the program
/// should exit (help/error), with the exit code in `exit_code`.
inline bool parse_standard(flag_set& flags, int argc, const char* const* argv,
                           standard_options& options, int& exit_code) {
  switch (flags.parse(argc, argv)) {
    case parse_status::help:
      exit_code = 0;
      return false;
    case parse_status::error:
      exit_code = 2;
      return false;
    case parse_status::ok:
      break;
  }
  options.replications = static_cast<std::uint64_t>(flags.get_int64("reps"));
  options.seed = static_cast<std::uint64_t>(flags.get_int64("seed"));
  options.threads = static_cast<unsigned>(flags.get_int64("threads"));
  options.quick = flags.get_bool("quick");
  options.csv = flags.get_bool("csv");
  if (options.quick) {
    options.replications = std::max<std::uint64_t>(8, options.replications / 4);
  }
  return true;
}

/// Prints the experiment banner.
inline void print_banner(const std::string& experiment_id, const std::string& claim) {
  std::printf("=== %s ===\n%s\n\n", experiment_id.c_str(), claim.c_str());
}

/// Prints the table (and CSV when requested).
inline void emit(const text_table& table, const standard_options& options) {
  table.print(std::cout);
  if (options.csv) {
    std::printf("\n--- csv ---\n");
    table.write_csv(std::cout);
  }
  std::printf("\n");
}

/// "yes"/"NO" verdict cell.
inline std::string verdict(bool ok) { return ok ? "yes" : "NO"; }

/// The §2.2 scalar estimates of the `regret` probe among a run's merged
/// probes.
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

}  // namespace sgl::bench
