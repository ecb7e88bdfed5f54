#include "trace.h"

#include <atomic>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "core/finite_dynamics.h"
#include "measure.h"
#include "service/digest.h"
#include "service/payload.h"
#include "support/parallel.h"

namespace perfbench {
namespace {

struct thread_buffer {
  std::uint32_t thread = 0;
  std::vector<span_record> spans;
  std::vector<std::int32_t> open;  // indices of the spans still open, innermost last
};

struct buffer_registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<thread_buffer>> buffers;  // never shrinks: threads keep pointers
};

buffer_registry& registry() {
  static buffer_registry instance;
  return instance;
}

std::atomic<std::uint64_t> g_job{0};

thread_buffer& local_buffer() {
  thread_local thread_buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto& reg = registry();
    const std::scoped_lock lock{reg.mutex};
    reg.buffers.push_back(std::make_unique<thread_buffer>());
    buffer = reg.buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(reg.buffers.size() - 1);
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

void close_on(thread_buffer& buffer, std::int32_t index) {
  if (buffer.open.empty() || buffer.open.back() != index) {
    throw std::logic_error{"perfbench: spans must close innermost first"};
  }
  buffer.open.pop_back();
  buffer.spans[static_cast<std::size_t>(index)].end_ns = now_ns();
}

}  // namespace

std::int32_t recorder::open(const char* name, std::optional<std::uint64_t> job) {
  thread_buffer& buffer = local_buffer();
  span_record record;
  record.name = name;
  record.thread = buffer.thread;
  record.parent = buffer.open.empty() ? -1 : buffer.open.back();
  record.job = job                 ? *job
               : record.parent >= 0 ? buffer.spans[static_cast<std::size_t>(record.parent)].job
                                    : g_job.load(std::memory_order_relaxed);
  record.start_ns = now_ns();
  buffer.spans.push_back(record);
  const auto index = static_cast<std::int32_t>(buffer.spans.size() - 1);
  buffer.open.push_back(index);
  return index;
}

void recorder::close(std::int32_t index) { close_on(local_buffer(), index); }

void recorder::set_job(std::uint64_t job) { g_job.store(job, std::memory_order_relaxed); }

void recorder::clear() {
  auto& reg = registry();
  const std::scoped_lock lock{reg.mutex};
  for (auto& buffer : reg.buffers) {
    buffer->spans.clear();
    buffer->open.clear();
  }
}

std::map<std::string, span_summary> recorder::summarize() {
  auto& reg = registry();
  const std::scoped_lock lock{reg.mutex};
  std::map<std::string, span_summary> out;
  for (const auto& buffer : reg.buffers) {
    std::vector<std::int64_t> children(buffer->spans.size(), 0);
    for (const span_record& s : buffer->spans) {
      if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const span_record& s = buffer->spans[i];
      span_summary& sum = out[s.name];
      const std::int64_t duration = s.end_ns - s.start_ns;
      ++sum.count;
      sum.total_ns += duration;
      sum.self_ns += duration - children[i];
    }
  }
  return out;
}

void recorder::write_csv(const std::string& path) {
  auto& reg = registry();
  const std::scoped_lock lock{reg.mutex};
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"perfbench: cannot write " + path};
  out << "name,thread,parent,job,start_ns,end_ns\n";
  for (const auto& buffer : reg.buffers) {
    for (const span_record& s : buffer->spans) {
      out << s.name << ',' << s.thread << ',' << s.parent << ',' << s.job << ','
          << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
}

void traced_engine::reset() {
  const span_scope span{"core.reset"};
  inner_->reset();
}

void traced_engine::step(std::span<const std::uint8_t> rewards, sgl::rng& gen) {
  const span_scope span{"core.step"};
  inner_->step(rewards, gen);
}

sgl::core::net_metrics traced_net_engine::sample_net() const {
  return dynamic_cast<const sgl::core::net_instrumented&>(*inner_).sample_net();
}

sgl::core::partition_sample traced_net_engine::sample_partition() const {
  return dynamic_cast<const sgl::core::partition_instrumented&>(*inner_).sample_partition();
}

void traced_env::sample(std::uint64_t t, sgl::rng& gen, std::span<std::uint8_t> out) {
  const span_scope span{"env.sample"};
  inner_->sample(t, gen, out);
}

std::unique_ptr<sgl::core::probe> traced_probe::clone() const {
  return std::make_unique<traced_probe>(inner_->clone(), opens_replication_,
                                        closes_replication_);
}

void traced_probe::begin_replication(std::uint64_t horizon) {
  if (opens_replication_) recorder::open("core.replication");
  inner_->begin_replication(horizon);
}

void traced_probe::on_step(const sgl::core::probe_step_view& step) {
  const span_scope span{"core.probe_step"};
  inner_->on_step(step);
}

void traced_probe::end_replication(const sgl::core::dynamics_engine& engine,
                                   const sgl::env::reward_model& environment,
                                   std::uint64_t horizon) {
  inner_->end_replication(engine, environment, horizon);
  if (closes_replication_) {
    // The replication span is the innermost open span here: every step
    // span of this replication has closed.
    thread_buffer& buffer = local_buffer();
    close_on(buffer, buffer.open.back());
  }
}

void traced_probe::merge(const sgl::core::probe& other) {
  const span_scope span{"core.probe_merge"};
  inner_->merge(*dynamic_cast<const traced_probe&>(other).inner_);
}

bool harness_clamps_engine_threads(const sgl::core::run_config& config) {
  const std::uint64_t threads =
      config.threads == 0 ? sgl::default_thread_count() : config.threads;
  return std::min<std::uint64_t>(threads, config.replications) > 1;
}

std::vector<const sgl::core::probe*> traced_factories::prototype_pointers() const {
  std::vector<const sgl::core::probe*> out;
  out.reserve(prototypes.size());
  for (const auto& prototype : prototypes) out.push_back(prototype.get());
  return out;
}

traced_factories make_traced(sgl::core::engine_factory make_engine,
                             sgl::core::env_factory make_env,
                             const sgl::core::probe_list& prototypes,
                             bool clamp_engine_threads) {
  traced_factories out;
  out.make_engine = [inner = std::move(make_engine),
                     clamp_engine_threads]() -> std::unique_ptr<sgl::core::dynamics_engine> {
    const span_scope span{"core.engine_build"};
    std::unique_ptr<sgl::core::dynamics_engine> engine = inner();
    // context_pool applies this clamp through dynamic_cast, which cannot
    // see through the decorator: apply it here, on the real engine.
    if (clamp_engine_threads) {
      if (auto* agents = dynamic_cast<sgl::core::finite_dynamics*>(engine.get())) {
        agents->set_threads(1);
      }
    }
    if (dynamic_cast<const sgl::core::net_instrumented*>(engine.get()) != nullptr) {
      return std::make_unique<traced_net_engine>(std::move(engine));
    }
    return std::make_unique<traced_engine>(std::move(engine));
  };
  out.make_env = [inner = std::move(make_env)]() -> std::unique_ptr<sgl::env::reward_model> {
    return std::make_unique<traced_env>(inner());
  };
  for (std::size_t i = 0; i < prototypes.size(); ++i) {
    out.prototypes.push_back(std::make_unique<traced_probe>(
        prototypes[i]->clone(), i == 0, i + 1 == prototypes.size()));
  }
  return out;
}

std::string point_payload(const sgl::scenario::scenario_spec& spec,
                          const sgl::core::run_config& config,
                          const sgl::core::probe_list& merged) {
  const std::vector<std::string> specs = sgl::service::resolved_probes(spec, {});
  std::vector<sgl::core::probe_report> reports;
  reports.reserve(merged.size());
  for (const auto& probe : merged) reports.push_back(probe->report());
  return sgl::service::build_point_payload(sgl::service::spec_digest(spec, config, specs), spec,
                                           config, specs, reports);
}

identity_result check_decorated_identity(const sgl::scenario::scenario_spec& spec,
                                         const sgl::core::run_config& config) {
  sgl::scenario::validate_spec(spec);
  const std::vector<std::string> specs = sgl::service::resolved_probes(spec, {});
  const sgl::core::probe_list prototypes = sgl::core::make_probes(specs);
  std::vector<const sgl::core::probe*> plain_prototypes;
  for (const auto& prototype : prototypes) plain_prototypes.push_back(prototype.get());

  identity_result result;
  const auto plain = sgl::core::run_with_probes(sgl::scenario::make_engine(spec),
                                                sgl::scenario::make_environment(spec.environment),
                                                config, plain_prototypes);
  result.plain = point_payload(spec, config, plain);

  const traced_factories traced =
      make_traced(sgl::scenario::make_engine(spec),
                  sgl::scenario::make_environment(spec.environment), prototypes,
                  harness_clamps_engine_threads(config));
  const auto decorated = sgl::core::run_with_probes(traced.make_engine, traced.make_env,
                                                    config, traced.prototype_pointers());
  result.decorated = point_payload(spec, config, decorated);
  recorder::clear();
  return result;
}

}  // namespace perfbench
