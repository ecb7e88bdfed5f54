// perfbench_batch — the in-process workloads of the benchmark (ba_sweep,
// hetero_reps).  run.py generates the inputs from the seed and parses the
// JSON document this program prints; see perfbench/README.md.
//
//   perfbench_batch --base network_ba_1e6 --overrides in.txt
//       --sweep params.beta=0.58:0.72:0.02 --horizon 20 --reps 2 --seed 7
//       --seconds 10 --trace 0 --work-dir DIR
//
// Untraced (--trace 0): run the job (one run_sweep, or one run_probes when
// there is no --sweep) back to back until the jobs have taken --seconds,
// recording wall, CPU and time to first result of every job and the
// canonical payload bytes of its results, and time the set-up in bursts
// spread over the same window.
// Traced (--trace 1): one untraced job, the same job through timing
// decorators, a threads=1 pass, and direct calls into each layer.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>

#include "core/experiment.h"
#include "measure.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "scenario/sweep.h"
#include "service/digest.h"
#include "service/result_store.h"
#include "support/flags.h"
#include "support/json.h"
#include "support/parallel.h"
#include "trace.h"

namespace {

using namespace sgl;
using perfbench::check_equal;
using perfbench::check_result;
using perfbench::median_us;
using perfbench::now_ns;

using grid_type = std::vector<std::vector<std::pair<std::string, std::string>>>;

struct workload {
  std::string base;
  std::vector<std::string> overrides;  // key=value lines from the input file
  grid_type grid;                      // empty = one point, run through run_probes
  core::run_config config;
  scenario::scenario_spec spec;        // loaded by setup()
  std::vector<std::string> probe_specs;

  [[nodiscard]] std::size_t points() const { return grid.empty() ? 1 : grid.size(); }

  [[nodiscard]] scenario::scenario_spec point_spec(std::size_t p) const {
    scenario::scenario_spec out = spec;
    if (!grid.empty()) {
      for (const auto& [key, value] : grid[p]) scenario::apply_override(out, key, value);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t agent_steps() const {
    return points() * config.replications * config.horizon * spec.num_agents;
  }
};

scenario::scenario_spec load_spec(const workload& w) {
  scenario::scenario_spec spec = scenario::get_scenario(w.base);
  for (const std::string& line : w.overrides) scenario::apply_override(spec, line);
  return spec;
}

/// One set-up: load the spec, validate it, materialize its graph and build
/// the factories.  Repetition 0 goes through the shared topology cache the
/// jobs then hit; later repetitions build the same-shaped graph from
/// another topology seed directly, so every repetition pays for one build.
double setup_once(workload& w, std::uint64_t repetition) {
  const std::int64_t start = now_ns();
  scenario::scenario_spec spec = load_spec(w);
  scenario::validate_spec(spec);
  if (spec.topology.family != scenario::topology_spec::family_kind::none && repetition > 0) {
    scenario::topology_spec decoy = spec.topology;
    decoy.seed = spec.topology.seed ^ (0x9E3779B97F4A7C15ULL * (repetition + 1));
    spec.prebuilt_graph = std::make_shared<const graph::graph>(
        scenario::build_topology(decoy, static_cast<std::size_t>(spec.num_agents)));
  }
  const core::engine_factory engine = scenario::make_engine(spec);
  const core::env_factory environment = scenario::make_environment(spec.environment);
  const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
  spec.prebuilt_graph = nullptr;
  w.spec = std::move(spec);
  return seconds;
}

/// Set-up is timed in bursts spread over the jobs' window: one before the
/// first job, one after each job while the bursts have taken less than
/// k_setup_share of the jobs' time, and more after the last job until
/// there are k_min_setup_bursts.  A burst repeats the set-up for at least
/// k_setup_burst_s (once when one set-up takes longer) and yields the time
/// per set-up.  run.py reports the fastest burst: on a shared host the
/// cache-bound set-up runs in fast and slow spells (2x apart, lasting
/// seconds, their share changing with the neighbours' load), so the median
/// of the bursts jumps between the two modes from run to run and their
/// mean follows the neighbours, while the fastest burst is the set-up's
/// own cost whenever one burst of the run lands in a quiet spell.
constexpr double k_setup_share = 0.1;
constexpr std::size_t k_min_setup_bursts = 3;
constexpr double k_setup_burst_s = 0.2;

double setup_burst(workload& w, std::uint64_t& repetitions) {
  const std::int64_t start = now_ns();
  double total = 0.0;
  std::uint64_t count = 0;
  do {
    total += setup_once(w, repetitions++);
    ++count;
  } while (static_cast<double>(now_ns() - start) * 1e-9 < k_setup_burst_s);
  return total / static_cast<double>(count);
}

struct job_outcome {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t first_result_ns = 0;
  double peak_rss_mb = 0.0;  // resident-set high-water mark during the job
  std::vector<std::string> payloads;  // canonical bytes, grid order
  scenario::topology_cache_stats topology{};  // lookups made by this job
};

std::string joined_digest(const std::vector<std::string>& payloads) {
  std::string all;
  for (const std::string& payload : payloads) all += payload;
  return service::fnv1a_128(all).hex();
}

/// The job as users run it: run_sweep for a grid, run_probes otherwise.
job_outcome run_job(const workload& w, const core::run_config& config) {
  job_outcome out;
  const scenario::topology_cache_stats before = scenario::shared_topology_stats();
  std::vector<scenario::sweep_point_result> results(w.points());
  std::vector<core::probe_list> merged;
  perfbench::reset_peak_rss();
  const std::int64_t cpu0 = perfbench::process_cpu_ns();
  const std::int64_t start = now_ns();
  if (!w.grid.empty()) {
    std::int64_t first = 0;
    scenario::sweep_stream_hooks hooks;
    hooks.on_point = [&](std::size_t index, scenario::sweep_point_result&& result) {
      if (first == 0) first = now_ns() - start;
      results[index] = std::move(result);
    };
    scenario::run_sweep_streaming(w.spec, w.grid, config, w.probe_specs, hooks);
    out.wall_ns = now_ns() - start;
    out.first_result_ns = first;
  } else {
    merged.push_back(scenario::run_probes(w.spec, config, w.probe_specs));
    out.wall_ns = now_ns() - start;
    out.first_result_ns = out.wall_ns;
  }
  out.cpu_ns = perfbench::process_cpu_ns() - cpu0;
  out.peak_rss_mb = perfbench::peak_rss_mb();
  const scenario::topology_cache_stats after = scenario::shared_topology_stats();
  out.topology.hits = after.hits - before.hits;
  out.topology.misses = after.misses - before.misses;
  if (!w.grid.empty()) {
    for (const auto& result : results) {
      out.payloads.push_back(perfbench::point_payload(result.spec, config, result.probes));
    }
  } else {
    out.payloads.push_back(perfbench::point_payload(w.spec, config, merged[0]));
  }
  return out;
}

/// The same job through timing decorators.  A single point goes through
/// run_with_probes with decorated factories.  A grid is scheduled the way
/// run_sweep schedules it, with decorated factories in each point's context
/// pool, so the traced run keeps the sweep's schedule and memory profile.
///
/// The grid branch is a copy of run_sweep_streaming's scheduler
/// (src/scenario/sweep.cpp) and must match it: (point x shard) work items
/// over the pool, one context pool per point, the engine-thread clamp when
/// more than one worker runs, and, when a point's last shard finishes, its
/// engines, factories and prototypes freed (point_state::release_run_state)
/// before the shards are merged in shard order.  A change to that scheduler
/// needs the same change here; the results do not depend on the schedule,
/// so traced_equals_untraced cannot catch a drift.
job_outcome run_traced_job(const workload& w, const core::run_config& config) {
  struct traced_point {
    scenario::scenario_spec spec;
    perfbench::traced_factories factories;
    std::unique_ptr<core::context_pool> contexts;
    std::vector<core::probe_list> shards;
    core::probe_list merged;
    std::atomic<std::size_t> shards_left{0};

    /// As point_state::release_run_state in sweep.cpp.
    void release_run_state() {
      contexts.reset();
      factories = {};
    }
  };
  job_outcome out;
  const std::size_t points = w.points();
  const shard_layout layout = reduce_layout(static_cast<std::size_t>(config.replications));
  std::vector<std::pair<std::size_t, std::size_t>> items;  // (point, shard)
  for (std::size_t p = 0; p < points; ++p) {
    for (std::size_t s = 0; s < layout.shard_count; ++s) {
      if (s * layout.chunk < config.replications) items.emplace_back(p, s);
    }
  }
  const unsigned threads = config.threads == 0 ? default_thread_count() : config.threads;
  const bool clamp = points == 1 ? perfbench::harness_clamps_engine_threads(config)
                                 : std::min<std::size_t>(threads, items.size()) > 1;
  std::vector<std::unique_ptr<traced_point>> state;
  std::atomic<std::int64_t> first{std::numeric_limits<std::int64_t>::max()};

  perfbench::recorder::clear();
  perfbench::recorder::set_job(1);
  const std::int64_t cpu0 = perfbench::process_cpu_ns();
  const std::int64_t start = now_ns();
  {
    const perfbench::span_scope job{"job"};
    for (std::size_t p = 0; p < points; ++p) {
      auto point = std::make_unique<traced_point>();
      point->spec = w.point_spec(p);
      scenario::validate_spec(point->spec);
      point->factories = perfbench::make_traced(
          scenario::make_engine(point->spec),
          scenario::make_environment(point->spec.environment),
          core::make_probes(w.probe_specs), clamp);
      state.push_back(std::move(point));
    }
    if (points == 1) {
      traced_point& point = *state[0];
      point.merged = core::run_with_probes(point.factories.make_engine,
                                           point.factories.make_env, config,
                                           point.factories.prototype_pointers());
      first.store(now_ns() - start);
    } else {
      for (auto& point : state) {
        point->contexts = std::make_unique<core::context_pool>(
            point->factories.make_engine, point->factories.make_env, clamp);
        for (std::size_t s = 0; s < layout.shard_count; ++s) {
          core::probe_list clones;
          for (const auto& prototype : point->factories.prototypes) {
            clones.push_back(prototype->clone());
          }
          point->shards.push_back(std::move(clones));
        }
      }
      for (const auto& [p, s] : items) state[p]->shards_left.fetch_add(1);
      parallel_tasks(
          items.size(),
          [&](std::size_t item) {
            const auto [p, s] = items[item];
            traced_point& point = *state[p];
            const std::size_t lo = s * layout.chunk;
            const std::size_t hi =
                std::min(static_cast<std::size_t>(config.replications), lo + layout.chunk);
            {
              auto context = point.contexts->borrow();
              for (std::size_t replication = lo; replication < hi; ++replication) {
                context->run(config, replication, point.shards[s]);
              }
            }
            if (point.shards_left.fetch_sub(1) == 1) {
              point.release_run_state();
              point.merged = std::move(point.shards[0]);
              for (std::size_t k = 1; k < point.shards.size(); ++k) {
                for (std::size_t i = 0; i < point.merged.size(); ++i) {
                  point.merged[i]->merge(*point.shards[k][i]);
                }
              }
              const std::int64_t done = now_ns() - start;
              std::int64_t seen = first.load();
              while (done < seen && !first.compare_exchange_weak(seen, done)) {
              }
            }
          },
          config.threads);
    }
  }
  out.wall_ns = now_ns() - start;
  out.cpu_ns = perfbench::process_cpu_ns() - cpu0;
  out.first_result_ns = first.load();
  for (const auto& point : state) {
    out.payloads.push_back(perfbench::point_payload(point->spec, config, point->merged));
  }
  return out;
}

/// A small spec of the workload's shape for the decorator identity check:
/// the same engine path at a population that runs in milliseconds.
scenario::scenario_spec small_spec(const workload& w) {
  scenario::scenario_spec spec = w.point_spec(0);
  const std::uint64_t agents = std::min<std::uint64_t>(spec.num_agents, 2000);
  if (!spec.agent_rules.empty()) spec.agent_rules.resize(agents);
  spec.num_agents = agents;
  return spec;
}

/// Bytes of the graph arrays plus one engine's per-agent state on the
/// paths the workloads take (computed from sizes, not measured).
struct working_set {
  std::uint64_t graph_bytes = 0;   // adjacency + offsets
  std::uint64_t view_bytes = 0;    // committed-neighbour view of one engine
  std::uint64_t engine_bytes = 0;  // one engine's per-agent state, view included
};

working_set computed_working_set(const scenario::scenario_spec& spec) {
  working_set out;
  const std::uint64_t n = spec.num_agents;
  const std::uint64_t m = spec.params.num_options;
  if (spec.topology.family != scenario::topology_spec::family_kind::none) {
    const auto graph = scenario::shared_topology(spec.topology, static_cast<std::size_t>(n));
    out.graph_bytes = graph->offsets().size() * sizeof(std::size_t) +
                      graph->adjacency().size() * sizeof(graph::graph::vertex);
    // choices + previous choices + committed-neighbour view (one packed
    // u32 row per vertex when m == 2, else m rows).
    out.view_bytes = n * (m == 2 ? 1 : m) * sizeof(std::uint32_t);
    out.engine_bytes = n * 2 * sizeof(std::int32_t) + out.view_bytes;
  } else {
    // alpha/beta thresholds (u64 each) + choices (i32) + considered (u32).
    out.engine_bytes = n * (2 * sizeof(std::uint64_t) + sizeof(std::int32_t) +
                            sizeof(std::uint32_t));
  }
  return out;
}

int run(const flag_set& flags) {
  workload w;
  w.base = flags.get_string("base");
  {
    std::ifstream in{flags.get_string("overrides")};
    if (!in) throw std::runtime_error{"cannot read --overrides " + flags.get_string("overrides")};
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) w.overrides.push_back(line);
    }
  }
  std::vector<scenario::sweep_axis> axes;
  for (const std::string& axis : flags.get_string_list("sweep")) {
    axes.push_back(scenario::parse_sweep_axis(axis));
  }
  if (!axes.empty()) w.grid = scenario::expand_sweep(axes);
  w.config.horizon = static_cast<std::uint64_t>(flags.get_int64("horizon"));
  w.config.replications = static_cast<std::uint64_t>(flags.get_int64("reps"));
  w.config.seed = static_cast<std::uint64_t>(flags.get_int64("seed"));
  const unsigned workers = default_thread_count();  // config.threads = 0: every core
  const double seconds = flags.get_double("seconds");
  const bool traced = flags.get_int64("trace") != 0;
  const std::filesystem::path work_dir = flags.get_string("work-dir");
  std::filesystem::create_directories(work_dir);

  // --- set-up (the first burst; untraced runs spread the rest over the jobs)
  std::uint64_t setup_repetitions = 0;
  std::vector<double> setup_seconds;
  double setup_total_s = 0.0;
  const auto burst = [&] {
    const std::int64_t start = now_ns();
    setup_seconds.push_back(setup_burst(w, setup_repetitions));
    setup_total_s += static_cast<double>(now_ns() - start) * 1e-9;
    // Return the heap the burst freed, so that the next job's peak RSS is
    // the job's own and not the set-ups' leftovers.
    malloc_trim(0);
  };
  if (traced) {
    setup_seconds.push_back(setup_once(w, setup_repetitions++));
  } else {
    burst();
  }
  w.probe_specs = service::resolved_probes(w.spec, {});

  std::vector<job_outcome> jobs;
  std::vector<check_result> checks;
  std::vector<std::pair<std::string, double>> layers;
  const auto set = [&layers](const char* name, double value) { layers.emplace_back(name, value); };

  if (!traced) {
    const std::int64_t min_jobs = flags.get_int64("min-jobs");
    check_result repeat{"repeat_runs_identical"};
    double job_seconds = 0.0;
    while (static_cast<std::int64_t>(jobs.size()) < min_jobs || job_seconds < seconds) {
      jobs.push_back(run_job(w, w.config));
      job_seconds += static_cast<double>(jobs.back().wall_ns) * 1e-9;
      // Compare, then drop, a later job's payloads: kept, they would grow
      // the process (0.6 MB per hetero_reps job), and with it the next
      // jobs' peak RSS, by the number of jobs a run fits in.
      if (jobs.size() > 1) {
        if (jobs.back().payloads != jobs.front().payloads) {
          repeat.fail("job " + std::to_string(jobs.size() - 1) + " differs from job 0");
        }
        std::vector<std::string>{}.swap(jobs.back().payloads);
      }
      if (setup_total_s < k_setup_share * job_seconds) burst();
    }
    while (setup_seconds.size() < k_min_setup_bursts) burst();
    checks.push_back(repeat);
  } else {
    // Decorators must not change a result (small spec of the same shape).
    {
      core::run_config small = w.config;
      small.horizon = std::min<std::uint64_t>(w.config.horizon, 50);
      small.replications =
          std::max<std::uint64_t>(4, std::min<std::uint64_t>(w.config.replications, 8));
      const perfbench::identity_result identity =
          perfbench::check_decorated_identity(small_spec(w), small);
      checks.push_back(check_equal("decorated_equals_plain", identity.identical(),
                                   "decorated payload differs"));
    }
    const job_outcome plain = run_job(w, w.config);
    const job_outcome traced_job = run_traced_job(w, w.config);
    const auto spans = perfbench::recorder::summarize();
    const std::string spans_path = flags.get_string("spans");
    if (!spans_path.empty()) perfbench::recorder::write_csv(spans_path);
    perfbench::recorder::clear();
    core::run_config single = w.config;
    single.threads = 1;
    const job_outcome one_thread = run_job(w, single);
    jobs.push_back(plain);

    checks.push_back(check_equal("traced_equals_untraced", traced_job.payloads == plain.payloads,
                                 "traced payload differs"));
    checks.push_back(check_equal("threads1_equals_threadsN",
                                 one_thread.payloads == plain.payloads,
                                 "threads=1 payload differs"));

    const auto span = [&spans](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? perfbench::span_summary{} : it->second;
    };
    const auto per = [](std::int64_t total, std::uint64_t count) {
      return count == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(count);
    };
    const scenario::scenario_spec spec0 = w.point_spec(0);
    const auto n = static_cast<double>(spec0.num_agents);
    const perfbench::span_summary step = span("core.step");
    const perfbench::span_summary replication = span("core.replication");

    // graph
    const bool networked = spec0.topology.family != scenario::topology_spec::family_kind::none;
    double build_seconds = 0.0;
    {
      const std::int64_t start = now_ns();
      if (networked) {
        const graph::graph built =
            scenario::build_topology(spec0.topology, static_cast<std::size_t>(spec0.num_agents));
        build_seconds = static_cast<double>(now_ns() - start) * 1e-9;
      } else {
        // No graph on this path: the graph layer's whole cost is the
        // precondition check validate_spec makes.
        build_seconds = median_us(0.05, [&] {
                          (void)scenario::topology_build_error(
                              spec0.topology, static_cast<std::size_t>(spec0.num_agents));
                        }) *
                        1e-6;
      }
    }
    const working_set ws = computed_working_set(spec0);
    set("graph.build_s", build_seconds);
    set("graph.bytes_computed_mb",
        static_cast<double>(ws.graph_bytes + ws.view_bytes) / (1 << 20));
    set("host.llc_mb", static_cast<double>(perfbench::llc_bytes()) / (1 << 20));
    const std::uint64_t lookups = plain.topology.hits + plain.topology.misses;
    set("scenario.topology_cache_hit_ratio",
        lookups == 0 ? 0.0 : static_cast<double>(plain.topology.hits) / lookups);

    // core
    const double step_ns = per(step.total_ns, step.count) / n;
    const double net2_ns = perfbench::kernel_net2_ns_per_agent(
        static_cast<std::size_t>(spec0.num_agents), w.config.seed, 0.3);
    const double mixed_ns = perfbench::kernel_mixed_ns_per_agent(
        static_cast<std::size_t>(spec0.num_agents), spec0.params.num_options, w.config.seed, 0.3);
    set("core.step_ns_per_agent", step_ns);
    set("core.kernel_net2_ns_per_agent", net2_ns);
    set("core.kernel_mixed_ns_per_agent", mixed_ns);
    set("core.view_walk_ns_per_agent_derived", step_ns - (networked ? net2_ns : mixed_ns));
    const perfbench::span_summary sample = span("env.sample");
    const perfbench::span_summary probe_step = span("core.probe_step");
    const perfbench::span_summary merge = span("core.probe_merge");
    set("env.sample_ns", per(sample.total_ns, sample.count));
    set("core.probe_step_ns", per(probe_step.total_ns, probe_step.count));
    set("core.probe_merge_us", per(merge.total_ns, merge.count) * 1e-3);
    set("core.replication_ms", per(replication.total_ns, replication.count) * 1e-6);
    set("core.replications", static_cast<double>(replication.count));

    // support: busy = time inside the harness's per-worker work
    const std::int64_t busy = replication.total_ns + span("core.reset").total_ns +
                              span("core.engine_build").total_ns + merge.total_ns;
    const double capacity = static_cast<double>(traced_job.wall_ns) * workers;
    set("support.pool_busy_frac", static_cast<double>(busy) / capacity);
    set("support.speedup_vs_1t",
        static_cast<double>(one_thread.wall_ns) / static_cast<double>(plain.wall_ns));
    set("process.cpu_wall_ratio",
        static_cast<double>(plain.cpu_ns) / static_cast<double>(plain.wall_ns));
    // 1.0 when the single-threaded pass never waits; below it, the wall
    // time no CPU accounts for (the ROADMAP's wall-versus-CPU gap).
    set("process.cpu_wall_ratio_1t",
        static_cast<double>(one_thread.cpu_ns) / static_cast<double>(one_thread.wall_ns));

    // scenario + service entry points, called directly on this job's specs
    const std::string text = scenario::serialize_scenario(spec0);
    set("scenario.parse_us", median_us(0.2, [&] { (void)scenario::parse_scenario(text); }));
    set("scenario.validate_us", median_us(0.1, [&] { scenario::validate_spec(spec0); }));
    std::vector<scenario::scenario_spec> specs;
    for (std::size_t p = 0; p < w.points(); ++p) specs.push_back(w.point_spec(p));
    set("service.digest_us", median_us(0.1, [&] {
          (void)service::spec_digest(specs[0], w.config, w.probe_specs);
        }));
    // What sociolearnd's submit does before job_accepted: validate and
    // digest every point of the job.
    set("service.accept_us", median_us(0.1, [&] {
          for (const auto& s : specs) {
            scenario::validate_spec(s);
            (void)service::spec_digest(s, w.config, w.probe_specs);
          }
        }));
    const std::filesystem::path store_root = work_dir / "trace-store";
    std::filesystem::remove_all(store_root);
    {
      service::result_store store{store_root};
      std::vector<double> put_ms;
      std::vector<double> get_us;
      std::vector<service::digest128> digests;
      for (std::size_t p = 0; p < specs.size(); ++p) {
        digests.push_back(service::spec_digest(specs[p], w.config, w.probe_specs));
        const std::int64_t start = now_ns();
        store.put(digests.back(), plain.payloads[p]);
        put_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
      }
      check_result round_trip{"store_round_trip"};
      for (int round = 0; round < 20; ++round) {
        for (std::size_t p = 0; p < specs.size(); ++p) {
          const std::int64_t start = now_ns();
          const auto got = store.get(digests[p]);
          get_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
          if (!got || *got != plain.payloads[p]) round_trip.fail("store get differs from put");
        }
      }
      checks.push_back(round_trip);
      set("service.store_get_us", perfbench::median(get_us));
      set("service.store_put_ms", perfbench::median(put_ms));
    }
    // The service rows that need a daemon (compute and queue time, hits,
    // rejections, object count) are service_mix's alone; a batch job
    // reports only what its direct digest and store calls measure.
    set("service.store_mb",
        static_cast<double>(perfbench::measure_tree(store_root / "objects").bytes) / (1 << 20));
    std::filesystem::remove_all(store_root);

    // trace
    set("trace.overhead_frac",
        static_cast<double>(traced_job.wall_ns) / static_cast<double>(plain.wall_ns) - 1.0);
    std::int64_t covered = 0;
    for (const auto& [name, summary] : spans) {
      if (name != "job") covered += summary.self_ns;
    }
    set("trace.unaccounted_frac", 1.0 - static_cast<double>(covered) / capacity);
    std::uint64_t span_count = 0;
    for (const auto& [name, summary] : spans) span_count += summary.count;
    set("trace.spans", static_cast<double>(span_count));
  }

  // --- report ---------------------------------------------------------------
  const scenario::scenario_spec spec0 = w.point_spec(0);
  const working_set ws = computed_working_set(spec0);
  std::ostringstream out;
  json_writer json{out, 0};
  json.begin_object();
  perfbench::write_numbers(json, "setup_s", setup_seconds);
  json.key("jobs").begin_array();
  for (const job_outcome& job : jobs) {
    json.begin_object();
    json.key("wall_s").value(static_cast<double>(job.wall_ns) * 1e-9);
    json.key("cpu_s").value(static_cast<double>(job.cpu_ns) * 1e-9);
    json.key("first_result_s").value(static_cast<double>(job.first_result_ns) * 1e-9);
    json.key("peak_rss_mb").value(job.peak_rss_mb);
    json.key("agent_steps").value(w.agent_steps());
    json.end_object();
  }
  json.end_array();
  json.key("result_digest").value(jobs.empty() ? "" : joined_digest(jobs[0].payloads));
  perfbench::write_checks(json, checks);
  json.key("layers").begin_object();
  for (const auto& [name, value] : layers) json.key(name).value(value);
  json.end_object();
  json.key("provenance").begin_object();
  json.key("nproc").value(static_cast<std::uint64_t>(default_thread_count()));
  json.key("threads").value(static_cast<std::uint64_t>(workers));
  json.key("isa").value(perfbench::active_isa_name());
  json.key("llc_bytes").value(perfbench::llc_bytes());
  json.key("graph_bytes_computed").value(ws.graph_bytes);
  json.key("engine_bytes_computed").value(ws.engine_bytes);
  json.key("working_set_bytes_computed").value(ws.graph_bytes + ws.engine_bytes);
  json.key("store_filesystem").value(perfbench::filesystem_name(work_dir));
  json.key("points").value(static_cast<std::uint64_t>(w.points()));
  json.key("agents").value(spec0.num_agents);
  json.end_object();
  json.end_object();
  std::cout << out.str() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  flag_set flags{"perfbench_batch", "in-process workloads of the benchmark"};
  flags.add_string("base", "", "registry scenario the workload starts from");
  flags.add_string("overrides", "", "file of key=value overrides, one per line");
  flags.add_string_list("sweep", "sweep axis key=lo:hi:step (repeatable); none = run_probes");
  flags.add_int64("horizon", 20, "steps per replication");
  flags.add_int64("reps", 2, "replications per point");
  flags.add_int64("seed", 1, "master seed of the run");
  flags.add_double("seconds", 10.0, "measured time (untraced)");
  flags.add_int64("min-jobs", 3, "jobs measured at least (untraced)");
  flags.add_int64("trace", 0, "1 = traced run (per-layer numbers)");
  flags.add_string("work-dir", "", "scratch directory for the trace store");
  flags.add_string("spans", "", "traced run: write every span here as CSV");
  if (flags.parse(argc, argv) != parse_status::ok) return 2;
  try {
    return run(flags);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_batch: " << e.what() << '\n';
    return 1;
  }
}
