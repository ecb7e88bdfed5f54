#pragma once

/// \file trace.h
/// The benchmark's traced run: an in-memory span recorder and timing
/// decorators for the three layers run_with_probes drives — the engine
/// (core), the reward model (env) and the probes.
///
/// The decorators time each call from outside, at the public interface,
/// and change nothing else.  They are faithful in the two ways a plain
/// wrapper is not:
///   * reusable() is forwarded, so the harness keeps reset()-reusing one
///     engine per worker instead of reconstructing it every replication;
///   * the factory applies the finite_dynamics engine-thread clamp itself.
///     context_pool finds the engine through dynamic_cast, which a wrapper
///     hides; without the clamp the traced run would nest engine threads
///     inside pool workers and measure a different program.
/// Engines that expose net_instrumented / partition_instrumented (the
/// gossip protocol engine) get a wrapper that forwards those too, because
/// the protocol probes discover them by dynamic_cast.
/// check_decorated_identity() runs a spec plain and decorated and compares
/// the canonical payload bytes; the benchmark refuses to report a traced
/// run whose decorators changed a result.
///
/// Spans are kept in per-thread buffers and written out when the run ends.
/// Each span records its name, the thread, its parent span on the same
/// thread (the span that was open when it started), the job it belongs to,
/// and its start and end times.  Recording is on only inside a traced run;
/// the untraced runs never construct a decorator.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dynamics_engine.h"
#include "core/experiment.h"
#include "core/net_metrics.h"
#include "core/probe.h"
#include "env/reward_model.h"
#include "scenario/scenario.h"

namespace perfbench {

struct span_record {
  const char* name = "";
  std::uint32_t thread = 0;
  std::int32_t parent = -1;  ///< index into the same thread's spans; -1 = none
  std::uint64_t job = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name totals over every recorded span.  self_ns is the duration
/// minus the part covered by the span's direct children.
struct span_summary {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// The process-wide recorder.  Threads register a buffer on first use.
class recorder {
 public:
  /// Opens a span on the calling thread; returns its index for close().
  /// The span belongs to `job` when given, else to its parent's job, else
  /// to the job set_job() named.
  static std::int32_t open(const char* name, std::optional<std::uint64_t> job = std::nullopt);
  /// Closes the span opened by open() on the same thread.
  static void close(std::int32_t index);
  /// The job of spans opened without a job and outside any span.
  static void set_job(std::uint64_t job);
  /// Drops every recorded span (buffers stay registered).
  static void clear();
  /// Per-name summary of everything recorded.
  static std::map<std::string, span_summary> summarize();
  /// Writes every span as one CSV line: name,thread,parent,job,start_ns,end_ns.
  static void write_csv(const std::string& path);
};

/// RAII span on the calling thread.
class span_scope {
 public:
  explicit span_scope(const char* name) : index_{recorder::open(name)} {}
  ~span_scope() { recorder::close(index_); }
  span_scope(const span_scope&) = delete;
  span_scope& operator=(const span_scope&) = delete;

 private:
  std::int32_t index_;
};

/// Engine decorator: spans "core.step" and "core.reset".
class traced_engine : public sgl::core::dynamics_engine {
 public:
  explicit traced_engine(std::unique_ptr<sgl::core::dynamics_engine> inner)
      : inner_{std::move(inner)} {}

  void reset() override;
  [[nodiscard]] bool reusable() const noexcept override { return inner_->reusable(); }
  void step(std::span<const std::uint8_t> rewards, sgl::rng& gen) override;
  [[nodiscard]] std::span<const double> popularity() const noexcept override {
    return inner_->popularity();
  }
  [[nodiscard]] std::span<const std::uint64_t> adopter_counts() const noexcept override {
    return inner_->adopter_counts();
  }
  [[nodiscard]] std::uint64_t empty_steps() const noexcept override {
    return inner_->empty_steps();
  }
  [[nodiscard]] std::uint64_t steps() const noexcept override { return inner_->steps(); }

  /// The decorated engine.
  [[nodiscard]] const sgl::core::dynamics_engine& inner() const noexcept { return *inner_; }

 protected:
  std::unique_ptr<sgl::core::dynamics_engine> inner_;
};

/// Engine decorator for network-instrumented engines (the protocol engine).
class traced_net_engine final : public traced_engine,
                                public sgl::core::net_instrumented,
                                public sgl::core::partition_instrumented {
 public:
  explicit traced_net_engine(std::unique_ptr<sgl::core::dynamics_engine> inner)
      : traced_engine{std::move(inner)} {}

  [[nodiscard]] sgl::core::net_metrics sample_net() const override;
  [[nodiscard]] sgl::core::partition_sample sample_partition() const override;
};

/// Reward-model decorator: span "env.sample".
class traced_env final : public sgl::env::reward_model {
 public:
  explicit traced_env(std::unique_ptr<sgl::env::reward_model> inner)
      : inner_{std::move(inner)} {}

  [[nodiscard]] std::size_t num_options() const noexcept override {
    return inner_->num_options();
  }
  void sample(std::uint64_t t, sgl::rng& gen, std::span<std::uint8_t> out) override;
  [[nodiscard]] double mean(std::uint64_t t, std::size_t option) const override {
    return inner_->mean(t, option);
  }
  [[nodiscard]] bool is_stationary() const noexcept override {
    return inner_->is_stationary();
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] bool reusable() const noexcept override { return inner_->reusable(); }

 private:
  std::unique_ptr<sgl::env::reward_model> inner_;
};

/// Probe decorator: spans "core.probe_step" and "core.probe_merge".  The
/// decorator of the first prototype opens the "core.replication" span in
/// begin_replication and the decorator of the last one closes it in
/// end_replication, so one replication is one span however many probes
/// are installed.
class traced_probe final : public sgl::core::probe {
 public:
  traced_probe(std::unique_ptr<sgl::core::probe> inner, bool opens_replication,
               bool closes_replication)
      : inner_{std::move(inner)},
        opens_replication_{opens_replication},
        closes_replication_{closes_replication} {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::unique_ptr<sgl::core::probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const sgl::core::probe_step_view& step) override;
  void end_replication(const sgl::core::dynamics_engine& engine,
                       const sgl::env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const sgl::core::probe& other) override;
  [[nodiscard]] sgl::core::probe_report report() const override { return inner_->report(); }

 private:
  std::unique_ptr<sgl::core::probe> inner_;
  bool opens_replication_;
  bool closes_replication_;
};

/// Whether run_with_probes will clamp network engines to one internal
/// thread for this config (more than one replication worker).
[[nodiscard]] bool harness_clamps_engine_threads(const sgl::core::run_config& config);

/// The decorated factories and probe prototypes for one run.  `make_engine`
/// spans "core.engine_build" around the inner factory, applies the engine
/// thread clamp when `clamp_engine_threads`, and wraps the result.
struct traced_factories {
  sgl::core::engine_factory make_engine;
  sgl::core::env_factory make_env;
  sgl::core::probe_list prototypes;

  [[nodiscard]] std::vector<const sgl::core::probe*> prototype_pointers() const;
};

[[nodiscard]] traced_factories make_traced(sgl::core::engine_factory make_engine,
                                           sgl::core::env_factory make_env,
                                           const sgl::core::probe_list& prototypes,
                                           bool clamp_engine_threads);

/// The canonical payload bytes (service/payload.h) of one merged result —
/// what the result store would persist for it.
[[nodiscard]] std::string point_payload(const sgl::scenario::scenario_spec& spec,
                                        const sgl::core::run_config& config,
                                        const sgl::core::probe_list& merged);

/// Runs one point with the plain factories (run_with_probes), then with
/// make_traced() decorators, and returns both canonical payloads.
/// Recording is switched to a throwaway job id and cleared afterwards.
struct identity_result {
  std::string plain;
  std::string decorated;
  [[nodiscard]] bool identical() const { return plain == decorated; }
};
[[nodiscard]] identity_result check_decorated_identity(
    const sgl::scenario::scenario_spec& spec, const sgl::core::run_config& config);

}  // namespace perfbench
