// Google-benchmark suite for the Monte-Carlo *harness*: how fast a sweep
// grid of many small points drains through the flattened scheduler.  The
// engine step kernels themselves are covered by micro_kernels.cpp, and the
// per-replication harness costs, large-N network replications and the
// topology cache by the same-host perfbench workloads (perfbench/README.md);
// this suite keeps the one case no workload covers.  Its numbers are a
// report, not a gate: CI uploads them as an artifact, and a perf claim is a
// same-host A/B against the merge base (perfbench/steadiness.py --against).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "scenario/sweep.h"

namespace {

using namespace sgl;

core::run_config harness_config(std::uint64_t horizon, std::uint64_t replications) {
  core::run_config config;
  config.horizon = horizon;
  config.replications = replications;
  config.seed = 99;
  // Single-threaded on purpose: google-benchmark's cpu_time counts only
  // the benchmark thread, so with threads=0 a multi-core machine would
  // hide most of the work in helper threads the metric never sees.
  // Pinning one thread makes cpu_time the whole workload on every
  // machine; scaling behaviour is the scheduler tests' concern.
  config.threads = 1;
  return config;
}

/// Wall clock of a 16-point sweep through the flattened scheduler.
void sweep_wall_clock(benchmark::State& state, const std::string& name,
                      const std::string& axis, std::uint64_t horizon,
                      std::uint64_t replications) {
  const scenario::scenario_spec base = scenario::get_scenario(name);
  const scenario::sweep_axis parsed = scenario::parse_sweep_axis(axis);
  const auto grid = scenario::expand_sweep(std::span{&parsed, 1});
  const core::run_config config = harness_config(horizon, replications);
  // Warm the worker pool outside the timed region, so process cold-start
  // costs are not charged to the first iteration.
  (void)scenario::run_probes(base, harness_config(1, 1));
  std::uint64_t points = 0;
  for (auto _ : state) {
    const auto results = scenario::run_sweep(base, grid, config);
    points += results.size();
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(points));
}

void BM_sweep16_mixed_baseline(benchmark::State& state) {
  sweep_wall_clock(state, "mixed_baseline", "params.beta=0.56:0.71:0.01", 400, 60);
}
BENCHMARK(BM_sweep16_mixed_baseline)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
