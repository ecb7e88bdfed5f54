#include "core/experiment.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/finite_dynamics.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace sgl::core {
namespace {

/// Per-shard accumulators: one clone of every probe prototype.
struct replication_shard {
  probe_list probes;
};

void merge_shards(replication_shard& into, const replication_shard& from) {
  for (std::size_t i = 0; i < into.probes.size(); ++i) {
    into.probes[i]->merge(*from.probes[i]);
  }
}

}  // namespace

void check_run_config(const run_config& config) {
  if (config.horizon == 0) throw std::invalid_argument{"run_config: horizon must be >= 1"};
  if (config.replications == 0) {
    throw std::invalid_argument{"run_config: need >= 1 replication"};
  }
}

replication_context::replication_context(const engine_factory& make_engine,
                                         const env_factory& make_env,
                                         bool clamp_engine_threads)
    : make_engine_{make_engine},
      make_env_{make_env},
      clamp_engine_threads_{clamp_engine_threads} {
  rebuild();
}

/// (Re)constructs the engine/environment pair.  This is also where the
/// per-replication checks of the old harness ran; they are now paid once
/// per context build — once per worker in the steady reusable state —
/// instead of once per replication.
void replication_context::rebuild() {
  environment_ = make_env_();
  engine_ = make_engine_();
  if (environment_->num_options() != engine_->num_options()) {
    throw std::invalid_argument{"run_with_probes: engine/environment option-count mismatch"};
  }
  if (clamp_engine_threads_) {
    // When the runner itself spreads replications across workers, an engine
    // that also fans out internally (finite_dynamics::set_threads) would
    // oversubscribe the machine quadratically; intra-replication
    // parallelism only pays when replications don't already saturate the
    // cores.  The clamp is a pure scheduling decision: network-mode
    // trajectories are bit-identical for every thread count.
    if (auto* agents = dynamic_cast<finite_dynamics*>(engine_.get())) {
      agents->set_threads(1);
    }
  }
  reusable_ = engine_->reusable() && environment_->reusable();
  fresh_ = true;
  const std::size_t m = environment_->num_options();
  rewards_.assign(m, 0);
  q_prev_.assign(m, 0.0);
}

void replication_context::run(const run_config& config, std::uint64_t replication,
                              const probe_list& probes) {
  // Bring the pair back to its initial state.  reset() and reconstruction
  // are state-identical by the reusable() contract (dynamics_engine.h),
  // so which one runs cannot change a trajectory — only the wall clock.
  if (fresh_) {
    fresh_ = false;
  } else if (reusable_) {
    engine_->reset();
    environment_->reset();
  } else {
    rebuild();
    fresh_ = false;
  }

  env::reward_model& environment = *environment_;
  dynamics_engine& engine = *engine_;
  rng reward_gen = rng::from_stream(config.seed, 2 * replication);
  rng process_gen = rng::from_stream(config.seed, 2 * replication + 1);

  for (const auto& probe : probes) probe->begin_replication(config.horizon);

  for (std::uint64_t t = 1; t <= config.horizon; ++t) {
    // Q^{t-1} must be *copied* out: popularity() is a view into engine
    // storage that step() overwrites in place, so handing the span itself
    // to the probes would alias the post-step Q^t.  Every engine mutates
    // its popularity buffer in place (that is what makes reset() cheap),
    // so there is no engine for which the copy could be dropped; at m
    // doubles it is far below one sampler draw anyway.
    const auto popularity_now = engine.popularity();
    std::copy(popularity_now.begin(), popularity_now.end(), q_prev_.begin());

    environment.sample(t, reward_gen, rewards_);
    engine.step(rewards_, process_gen);

    const probe_step_view view{.t = t,
                               .horizon = config.horizon,
                               .popularity_before = q_prev_,
                               .rewards = rewards_,
                               .engine = engine,
                               .environment = environment};
    for (const auto& probe : probes) probe->on_step(view);
  }

  for (const auto& probe : probes) {
    probe->end_replication(engine, environment, config.horizon);
  }
}

context_pool::lease context_pool::borrow() {
  {
    const std::scoped_lock lock{mutex_};
    if (!free_.empty()) {
      auto context = std::move(free_.back());
      free_.pop_back();
      return lease{*this, std::move(context)};
    }
  }
  return lease{*this, std::make_unique<replication_context>(make_engine_, make_env_,
                                                            clamp_engine_threads_)};
}

void context_pool::release(std::unique_ptr<replication_context> context) {
  if (context == nullptr) return;
  const std::scoped_lock lock{mutex_};
  free_.push_back(std::move(context));
}

probe_list run_with_probes(const engine_factory& make_engine, const env_factory& make_env,
                           const run_config& config,
                           std::span<const probe* const> prototypes) {
  check_run_config(config);
  const unsigned workers = std::min<unsigned>(
      config.threads == 0 ? default_thread_count() : config.threads,
      static_cast<unsigned>(std::min<std::uint64_t>(
          config.replications, std::numeric_limits<unsigned>::max())));
  context_pool contexts{make_engine, make_env, /*clamp_engine_threads=*/workers > 1};
  auto shard = parallel_reduce<replication_shard>(
      config.replications,
      [&] {
        replication_shard s;
        s.probes.reserve(prototypes.size());
        for (const probe* prototype : prototypes) s.probes.push_back(prototype->clone());
        return s;
      },
      [&](replication_shard& s, std::size_t replication) {
        contexts.borrow()->run(config, replication, s.probes);
      },
      merge_shards, config.threads);
  return std::move(shard.probes);
}

regret_estimate to_regret_estimate(const regret_probe& probe) {
  regret_estimate est;
  est.regret = confidence_interval(probe.regret_stats());
  est.average_reward = confidence_interval(probe.average_reward_stats());
  est.best_mass = confidence_interval(probe.best_mass_stats());
  est.final_best_mass = confidence_interval(probe.final_best_mass_stats());
  est.empty_step_fraction = probe.empty_fraction_stats().mean();
  est.replications = probe.regret_stats().count();
  return est;
}

}  // namespace sgl::core
