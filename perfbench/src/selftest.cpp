// perfbench_selftest — checks that the timing decorators of the traced run
// measure the same program: decorated and plain runs of small specs of
// every engine kind give byte-identical canonical payloads, reusable() is
// forwarded (one engine per worker, not per replication), and the
// engine-thread clamp reaches the engine behind the decorator.
// Exit code 0 when every check passes.  `python3 perfbench/run.py
// --self-test` builds and runs it.

#include <cstdio>
#include <string>
#include <vector>

#include "core/finite_dynamics.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "service/digest.h"
#include "trace.h"

namespace {

using namespace sgl;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

scenario::scenario_spec small(const char* name, std::uint64_t agents) {
  scenario::scenario_spec spec = scenario::get_scenario(name);
  if (agents != 0) spec.num_agents = agents;
  return spec;
}

/// A fully mixed heterogeneous spec: the hetero_reps engine path.
scenario::scenario_spec hetero(std::uint64_t agents) {
  scenario::scenario_spec spec = scenario::get_scenario("mixed_baseline");
  spec.engine = scenario::engine_kind::agent_based;
  spec.num_agents = agents;
  for (std::uint64_t i = 0; i < agents; ++i) {
    const double beta = 0.55 + 0.4 * static_cast<double>(i % 7) / 7.0;
    spec.agent_rules.push_back({(1.0 - beta) * static_cast<double>(i % 3) / 3.0, beta});
  }
  return spec;
}

}  // namespace

int main() {
  core::run_config config;
  config.horizon = 40;
  config.replications = 6;
  config.seed = 11;
  config.threads = 3;

  // Byte identity, one spec per engine path.
  std::vector<std::pair<std::string, scenario::scenario_spec>> specs;
  specs.emplace_back("agent_based quickstart", small("quickstart", 0));
  specs.emplace_back("aggregate mixed_baseline", small("mixed_baseline", 0));
  specs.emplace_back("grouped mixture-discernment", small("mixture-discernment", 0));
  specs.emplace_back("network ring", small("ring", 0));
  specs.emplace_back("network barabasi_albert", small("network_ba_1e6", 3000));
  specs.emplace_back("protocol gossip_lossy_sweep", small("gossip_lossy_sweep", 100));
  specs.emplace_back("mixed heterogeneous rules", hetero(1500));
  for (const auto& [label, spec] : specs) {
    core::run_config run = config;
    if (label.rfind("protocol", 0) == 0) run.horizon = 8;
    const perfbench::identity_result result = perfbench::check_decorated_identity(spec, run);
    expect(result.identical() && !result.plain.empty(), "decorated == plain: " + label);
  }

  // A mismatch must be visible to the check: a different seed differs.
  {
    const scenario::scenario_spec spec = small("ring", 0);
    core::run_config other = config;
    other.seed = config.seed + 1;
    const auto a = perfbench::check_decorated_identity(spec, config);
    const auto b = perfbench::check_decorated_identity(spec, other);
    expect(a.plain != b.plain, "payload comparison detects a changed result");
  }

  // reusable() forwarded: the harness builds one engine per worker.
  {
    const scenario::scenario_spec spec = small("ring", 0);
    const core::probe_list prototypes =
        core::make_probes(service::resolved_probes(spec, {}));
    const perfbench::traced_factories traced = perfbench::make_traced(
        scenario::make_engine(spec), scenario::make_environment(spec.environment), prototypes,
        perfbench::harness_clamps_engine_threads(config));
    perfbench::recorder::clear();
    (void)core::run_with_probes(traced.make_engine, traced.make_env, config,
                                traced.prototype_pointers());
    const auto spans = perfbench::recorder::summarize();
    const std::uint64_t builds = spans.count("core.engine_build") != 0
                                     ? spans.at("core.engine_build").count
                                     : 0;
    const std::uint64_t replications = spans.count("core.replication") != 0
                                           ? spans.at("core.replication").count
                                           : 0;
    perfbench::recorder::clear();
    expect(replications == config.replications, "one replication span per replication");
    expect(builds >= 1 && builds <= config.threads,
           "engines built per worker, not per replication (" + std::to_string(builds) + ")");
  }

  // The engine-thread clamp reaches the engine behind the decorator.
  {
    const scenario::scenario_spec spec = small("network_ba_1e6", 3000);  // engine_threads = 0
    const core::probe_list prototypes =
        core::make_probes(service::resolved_probes(spec, {}));
    for (const bool clamp : {true, false}) {
      const perfbench::traced_factories traced = perfbench::make_traced(
          scenario::make_engine(spec), scenario::make_environment(spec.environment),
          prototypes, clamp);
      const auto engine = traced.make_engine();
      const auto& decorated = dynamic_cast<const perfbench::traced_engine&>(*engine);
      const auto* agents = dynamic_cast<const core::finite_dynamics*>(&decorated.inner());
      expect(agents != nullptr && decorated.reusable(), "decorated engine is reusable");
      expect(agents != nullptr && agents->threads() == (clamp ? 1U : 0U),
             clamp ? "clamp applied behind the decorator" : "no clamp when not asked");
    }
    perfbench::recorder::clear();
  }

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
