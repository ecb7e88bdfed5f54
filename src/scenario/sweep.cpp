#include "scenario/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "scenario/serialize.h"
#include "support/parallel.h"

namespace sgl::scenario {
namespace {

/// Everything one grid point needs while its shards are in flight.
struct point_state {
  scenario_spec spec;
  std::vector<std::pair<std::string, std::string>> assignments;
  core::engine_factory make_engine;
  core::env_factory make_env;
  core::probe_list prototypes;
  std::unique_ptr<core::context_pool> contexts;
  std::vector<core::probe_list> shard_probes;  // merged in index order at the end
  shard_layout layout;  // parallel_reduce's decomposition (support/parallel.h)
  std::atomic<std::size_t> shards_left{0};
  std::atomic<bool> skipped{false};  // a shard was cancelled: never merge/emit
  std::atomic<std::int64_t> first_start_ns{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> last_end_ns{std::numeric_limits<std::int64_t>::min()};

  /// Drops the engines, factories and (through them) this point's graph
  /// reference as soon as the point's last shard completes, so a sweep
  /// whose points each carry O(N) state — e.g. a topology.seed sweep over
  /// 10^6-vertex graphs — peaks at the *in-flight* points, not the whole
  /// grid.  Only the shard probes (needed for the merge) survive.
  void release_run_state() {
    contexts.reset();
    make_engine = nullptr;
    make_env = nullptr;
    prototypes.clear();
  }
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void fetch_min(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t seen = slot.load(std::memory_order_relaxed);
  while (value < seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void fetch_max(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

/// Merges a completed point's shards in fixed shard order and packages the
/// result — the exact fold the batch collector used to run in its phase 3,
/// now executed by whichever worker finished the point's last shard.
sweep_point_result package_point(point_state& state) {
  core::probe_list merged = std::move(state.shard_probes[0]);
  for (std::size_t s = 1; s < state.shard_probes.size(); ++s) {
    for (std::size_t i = 0; i < merged.size(); ++i) {
      merged[i]->merge(*state.shard_probes[s][i]);
    }
  }
  sweep_point_result result;
  result.spec = std::move(state.spec);
  result.assignments = std::move(state.assignments);
  result.probes = std::move(merged);
  const std::int64_t start = state.first_start_ns.load(std::memory_order_relaxed);
  const std::int64_t end = state.last_end_ns.load(std::memory_order_relaxed);
  result.seconds = end > start ? static_cast<double>(end - start) * 1e-9 : 0.0;
  return result;
}

}  // namespace

std::size_t run_sweep_streaming(
    const scenario_spec& base,
    std::span<const std::vector<std::pair<std::string, std::string>>> grid,
    const core::run_config& config, std::span<const std::string> probe_specs,
    const sweep_stream_hooks& hooks) {
  static const std::vector<std::pair<std::string, std::string>> k_no_assignments;
  static const std::vector<std::string> k_default_probes{"regret"};

  core::check_run_config(config);
  const std::size_t points = grid.empty() ? 1 : grid.size();

  // Phase 1 — resolve and validate every point before any work runs:
  // overrides applied, cross-field validation, factories built (this is
  // where bad engine/topology combinations throw, and where topology
  // sharing happens: identical keys resolve to one cached graph).
  std::vector<std::unique_ptr<point_state>> states;
  states.reserve(points);
  for (std::size_t p = 0; p < points; ++p) {
    auto state = std::make_unique<point_state>();
    state->spec = base;
    state->assignments = grid.empty() ? k_no_assignments : grid[p];
    for (const auto& [key, value] : state->assignments) {
      apply_override(state->spec, key, value);
    }
    validate_spec(state->spec);
    state->make_engine = make_engine(state->spec);
    state->make_env = make_environment(state->spec.environment);
    const std::span<const std::string> specs =
        !probe_specs.empty()       ? probe_specs
        : !state->spec.probes.empty() ? std::span<const std::string>{state->spec.probes}
                                      : std::span<const std::string>{k_default_probes};
    state->prototypes = core::make_probes(specs);
    state->layout = reduce_layout(static_cast<std::size_t>(config.replications));
    states.push_back(std::move(state));
  }

  // Phase 2 — flatten the grid into (point, shard) work items and drain
  // them over the shared pool.  The per-point shard decomposition, per-
  // replication streams, and shard-order merge are exactly
  // run_with_probes'; the scheduler only changes *when* each shard runs.
  std::vector<std::pair<std::size_t, std::size_t>> items;  // (point, shard)
  for (std::size_t p = 0; p < points; ++p) {
    auto& state = *states[p];
    state.shard_probes.resize(state.layout.shard_count);
    std::size_t live_shards = 0;
    for (std::size_t s = 0; s < state.layout.shard_count; ++s) {
      // Every shard gets its accumulator clones (the merge below walks all
      // of them, exactly as run_with_probes merges its empty shards), but
      // only shards with a non-empty replication range become work items —
      // an empty shard must not borrow (and possibly construct) an engine.
      core::probe_list clones;
      clones.reserve(state.prototypes.size());
      for (const auto& prototype : state.prototypes) clones.push_back(prototype->clone());
      state.shard_probes[s] = std::move(clones);
      const auto [lo, hi] = state.layout.bounds(s, config.replications);
      if (lo < hi) {
        items.emplace_back(p, s);
        ++live_shards;
      }
    }
    state.shards_left.store(live_shards, std::memory_order_relaxed);
  }

  const unsigned workers = std::min<unsigned>(
      config.threads == 0 ? default_thread_count() : config.threads,
      static_cast<unsigned>(std::min<std::size_t>(
          items.size(), std::numeric_limits<unsigned>::max())));
  const bool clamp_engine_threads = workers > 1;
  for (auto& state : states) {
    state->contexts = std::make_unique<core::context_pool>(
        state->make_engine, state->make_env, clamp_engine_threads);
  }

  std::mutex emit_mutex;  // serializes on_point across finishing workers
  std::atomic<std::size_t> completed{0};

  parallel_tasks(
      items.size(),
      [&](std::size_t item) {
        const auto [p, s] = items[item];
        auto& state = *states[p];
        const bool cancelled =
            hooks.cancel != nullptr && hooks.cancel->load(std::memory_order_acquire);
        if (!cancelled) {
          fetch_min(state.first_start_ns, now_ns());
          const auto [lo, hi] = state.layout.bounds(s, config.replications);
          {
            auto context = state.contexts->borrow();
            for (std::size_t replication = lo; replication < hi; ++replication) {
              context->run(config, replication, state.shard_probes[s]);
            }
          }
          fetch_max(state.last_end_ns, now_ns());
        } else {
          // A skipped shard poisons the point: its accumulators are empty,
          // so a merge would misreport a partial run as the real result.
          state.skipped.store(true, std::memory_order_release);
        }
        // Last shard of the point: free its engines and graph reference now
        // (no other task of this point can be running — its lease above was
        // returned before the decrement), then merge and deliver unless a
        // sibling shard was cancelled.
        if (state.shards_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          state.release_run_state();
          if (!state.skipped.load(std::memory_order_acquire)) {
            sweep_point_result result = package_point(state);
            completed.fetch_add(1, std::memory_order_relaxed);
            if (hooks.on_point) {
              const std::lock_guard<std::mutex> lock{emit_mutex};
              hooks.on_point(p, std::move(result));
            }
          }
        }
      },
      config.threads);

  return completed.load(std::memory_order_relaxed);
}

std::vector<sweep_point_result> run_sweep(
    const scenario_spec& base,
    std::span<const std::vector<std::pair<std::string, std::string>>> grid,
    const core::run_config& config, std::span<const std::string> probe_specs) {
  const std::size_t points = grid.empty() ? 1 : grid.size();
  std::vector<sweep_point_result> results(points);

  sweep_stream_hooks hooks;
  hooks.on_point = [&results](std::size_t index, sweep_point_result&& result) {
    results[index] = std::move(result);
  };
  run_sweep_streaming(base, grid, config, probe_specs, hooks);
  return results;
}

}  // namespace sgl::scenario
