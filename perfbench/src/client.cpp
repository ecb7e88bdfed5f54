// perfbench_client — the service_mix workload: a closed-loop client of the
// real sociolearnd binary.  run.py generates the request stream from the
// seed; this program owns the daemon's lifetime and prints one JSON
// document of raw measurements.
//
//   perfbench_client --daemon build/sgl/sociolearnd --stream stream.txt
//       --work-dir DIR --seconds 10 --trace 0
//
// Each stream line is `scenario beta seed horizon replications`: one
// single-point submission of a registry scenario.  A pass starts a fresh
// daemon on a fresh store, opens two connections and drains the stream
// over them, each connection sending its next request only after the
// previous one's job_done (submit blocks until then).  The first
// occurrence of a point computes and persists it; every repeat is a cache
// hit.  Passes repeat until --seconds have passed; every daemon start is a
// set-up sample.  The traced run adds a pass with client-side spans and
// replays the requests through direct calls into the scenario and service
// layers and through decorated in-process runs.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/experiment.h"
#include "measure.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "scenario/sweep.h"
#include "service/digest.h"
#include "service/result_store.h"
#include "service/socket.h"
#include "support/flags.h"
#include "support/json.h"
#include "support/json_parse.h"
#include "support/parallel.h"
#include "trace.h"

extern char** environ;

namespace {

using namespace sgl;
using perfbench::check_result;
using perfbench::median_us;
using perfbench::now_ns;
using perfbench::write_numbers;

struct request {
  std::string scenario;
  std::string beta;
  core::run_config config;
  std::string text;  // the canonical base scenario text sent as "spec"
  std::string line;  // the submit request, newline-terminated
  scenario::scenario_spec spec;  // the point as the daemon will run it
  std::string digest;
  std::uint64_t agent_steps = 0;
};

std::vector<request> load_stream(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot read --stream " + path};
  std::map<std::string, std::string> texts;
  std::vector<request> out;
  request r;
  std::uint64_t seed = 0;
  std::uint64_t horizon = 0;
  std::uint64_t reps = 0;
  while (in >> r.scenario >> r.beta >> seed >> horizon >> reps) {
    auto [it, fresh] = texts.try_emplace(r.scenario);
    if (fresh) it->second = scenario::serialize_scenario(scenario::get_scenario(r.scenario));
    r.text = it->second;
    r.config = core::run_config{};
    r.config.horizon = horizon;
    r.config.replications = reps;
    r.config.seed = seed;
    r.spec = scenario::parse_scenario(r.text);
    scenario::apply_override(r.spec, "params.beta", r.beta);
    scenario::validate_spec(r.spec);
    r.digest = service::spec_digest(r.spec, r.config, {}).hex();
    r.agent_steps = r.spec.num_agents * horizon * reps;
    std::ostringstream line;
    json_writer json{line, 0};
    json.begin_object();
    json.key("op").value("submit");
    json.key("spec").value(r.text);
    json.key("set").begin_array().value("params.beta=" + r.beta).end_array();
    json.key("horizon").value(horizon);
    json.key("replications").value(reps);
    json.key("seed").value(seed);
    json.end_object();
    r.line = line.str() + "\n";
    out.push_back(r);
  }
  if (out.empty()) throw std::runtime_error{"empty --stream " + path};
  return out;
}

// --- the daemon ---------------------------------------------------------------

class daemon_process {
 public:
  daemon_process(const std::string& binary, const std::filesystem::path& dir)
      : socket_{(dir / "d.sock").string()} {
    std::filesystem::create_directories(dir);
    int out[2];
    if (pipe(out) != 0) throw std::runtime_error{"pipe failed"};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    const std::string log = (dir / "daemon.log").string();
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const std::string store = (dir / "store").string();
    // No --threads: the daemon's default, every core.
    std::vector<std::string> args{binary, "--socket", socket_, "--store", store};
    std::vector<char*> argv;
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    ready_fd_ = service::unix_fd{out[0]};
    if (rc != 0) throw std::runtime_error{"cannot start " + binary + ": " + std::strerror(rc)};
    // The ready line is sociolearnd's start-up handshake.
    service::line_reader reader;
    const std::optional<std::string> line = reader.next_line(ready_fd_.get());
    if (!line || line->find("\"ready\"") == std::string::npos) {
      stop();
      throw std::runtime_error{"sociolearnd did not report ready (see " + log + ")"};
    }
  }

  daemon_process(const daemon_process&) = delete;
  daemon_process& operator=(const daemon_process&) = delete;
  ~daemon_process() { stop(); }

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

  /// The daemon's own peak resident set so far (VmHWM), in MiB.
  [[nodiscard]] double peak_rss_mb() const { return perfbench::peak_rss_mb(pid_); }

  /// SIGTERM (graceful drain), then reap; returns the daemon's rusage.
  rusage stop() {
    rusage usage{};
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    return usage;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  service::unix_fd ready_fd_;
};

struct connections {
  service::unix_fd fd[2];
};

connections connect_two(const daemon_process& daemon) {
  connections out;
  for (auto& fd : out.fd) fd = service::unix_connect(daemon.socket());
  return out;
}

// --- one pass -----------------------------------------------------------------

struct sample {
  std::int64_t submit_ns = 0;
  std::int64_t accepted_ns = 0;
  std::int64_t first_ns = 0;
  std::int64_t done_ns = 0;
  bool hit = false;
  bool rejected = false;
  bool failed = false;
  double seconds = 0.0;  // point_done compute time
  std::string digest;    // from job_accepted
  std::string payload;   // the event's "result" bytes
  std::uint64_t total = 0;
  std::uint64_t computed = 0;
  std::uint64_t cached = 0;
};

std::string_view event_name(std::string_view line) {
  constexpr std::string_view prefix = "{\"event\":\"";
  if (line.substr(0, prefix.size()) != prefix) return {};
  line.remove_prefix(prefix.size());
  return line.substr(0, line.find('"'));
}

/// Drives request `index` to its job_done on `fd`.  With `traced`, the
/// client records spans for the phases it can see, under the request's
/// index as their job.
void drive(int fd, service::line_reader& reader, std::size_t index, const request& r, sample& s,
           bool traced) {
  std::int32_t request_span = -1;
  std::int32_t phase = -1;
  if (traced) {
    request_span = perfbench::recorder::open("client.request", index);
    phase = perfbench::recorder::open("client.accept");
  }
  s.submit_ns = now_ns();
  if (!service::write_all(fd, r.line)) throw std::runtime_error{"daemon connection lost"};
  while (true) {
    const std::optional<std::string> line = reader.next_line(fd);
    const std::int64_t at = now_ns();
    if (!line) throw std::runtime_error{"daemon closed the connection"};
    const std::string_view event = event_name(*line);
    if (event == "job_accepted") {
      s.accepted_ns = at;
      if (traced) {
        perfbench::recorder::close(phase);
        phase = perfbench::recorder::open("client.result_wait");
      }
      const json_value parsed = parse_json(*line);
      const json_value* digests = parsed.find("digests");
      if (digests != nullptr && digests->is_array() && !digests->items.empty()) {
        s.digest = digests->items[0].as_string("digest");
      }
    } else if (event == "cache_hit" || event == "point_done") {
      if (s.first_ns == 0) {
        s.first_ns = at;
        if (traced) {
          perfbench::recorder::close(phase);
          phase = perfbench::recorder::open("client.done_wait");
        }
      }
      s.hit = event == "cache_hit";
      constexpr std::string_view key = ",\"result\":";
      const std::size_t pos = line->find(key);
      if (pos == std::string::npos || line->back() != '}') {
        s.failed = true;
      } else {
        s.payload = line->substr(pos + key.size(), line->size() - pos - key.size() - 1);
      }
      if (!s.hit) {
        constexpr std::string_view seconds_key = "\"seconds\":";
        const std::size_t at_seconds = line->find(seconds_key);
        if (at_seconds != std::string::npos && at_seconds < pos) {
          s.seconds = std::strtod(line->c_str() + at_seconds + seconds_key.size(), nullptr);
        }
      }
    } else if (event == "job_done") {
      s.done_ns = at;
      const json_value parsed = parse_json(*line);
      s.total = parsed.find("total")->as_uint64("total");
      s.computed = parsed.find("computed")->as_uint64("computed");
      s.cached = parsed.find("cached")->as_uint64("cached");
      if (parsed.find("status")->as_string("status") != "done") s.failed = true;
      break;
    } else if (event == "job_rejected") {
      s.rejected = true;
      s.done_ns = at;
      break;
    } else {
      s.failed = true;  // error event or anything unexpected
      s.done_ns = at;
      break;
    }
  }
  if (traced) {
    perfbench::recorder::close(phase);
    perfbench::recorder::close(request_span);
  }
}

struct pass_result {
  std::vector<sample> samples;
  std::int64_t wall_ns = 0;
  double daemon_cpu_s = 0.0;
  double daemon_maxrss_mb = 0.0;
  perfbench::tree_size store;
  std::string store_filesystem;

  /// Drops the result bytes once a pass is checked, so the client's
  /// memory does not grow pass after pass.
  void forget_payloads() {
    for (sample& s : samples) std::string{}.swap(s.payload);
  }
};

pass_result run_pass(const std::string& binary, const std::filesystem::path& dir,
                     const std::vector<request>& requests, bool traced,
                     std::vector<double>& setup_seconds) {
  std::filesystem::remove_all(dir);
  pass_result out;
  out.samples.resize(requests.size());
  const std::int64_t setup_start = now_ns();
  daemon_process daemon{binary, dir};
  connections conns = connect_two(daemon);
  setup_seconds.push_back(static_cast<double>(now_ns() - setup_start) * 1e-9);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> broken{false};
  std::string error;
  std::mutex error_mutex;
  const std::int64_t start = now_ns();
  {
    std::vector<std::jthread> clients;
    for (auto& fd : conns.fd) {
      clients.emplace_back([&, socket = fd.get()] {
        service::line_reader reader;
        try {
          for (std::size_t i = next.fetch_add(1); i < requests.size() && !broken.load();
               i = next.fetch_add(1)) {
            drive(socket, reader, i, requests[i], out.samples[i], traced);
          }
        } catch (const std::exception& e) {
          broken.store(true);
          const std::lock_guard<std::mutex> lock{error_mutex};
          error = e.what();
        }
      });
    }
  }
  out.wall_ns = now_ns() - start;
  if (broken.load()) throw std::runtime_error{"pass failed: " + error};
  out.store = perfbench::measure_tree(dir / "store" / "objects");
  out.store_filesystem = perfbench::filesystem_name(dir);
  for (auto& fd : conns.fd) fd.reset();
  out.daemon_maxrss_mb = daemon.peak_rss_mb();
  const rusage usage = daemon.stop();
  out.daemon_cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                     static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  return out;
}

// --- checks -------------------------------------------------------------------

/// Per-pass output checks; `reference` maps digest -> payload of the first
/// pass (filled by the first call).
std::vector<check_result> check_pass(const std::vector<request>& requests,
                                     const pass_result& pass,
                                     std::map<std::string, std::string>& reference) {
  check_result hits{"cache_hit_equals_computed"};
  check_result counts{"job_done_counts_add_up"};
  check_result digests{"client_digest_equals_daemon"};
  check_result repeat{"repeat_passes_identical"};
  check_result outcomes{"no_failed_or_rejected_jobs"};
  std::map<std::string, std::string> computed;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const sample& s = pass.samples[i];
    if (s.failed || s.rejected) outcomes.fail("request " + std::to_string(i));
    if (s.computed + s.cached != s.total || s.total != 1) {
      counts.fail("request " + std::to_string(i));
    }
    if (s.digest != requests[i].digest) digests.fail("request " + std::to_string(i));
    if (!s.hit) {
      const auto [it, fresh] = computed.try_emplace(s.digest, s.payload);
      if (!fresh && it->second != s.payload) hits.fail("recomputed payload differs " + s.digest);
    }
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const sample& s = pass.samples[i];
    if (!s.hit) continue;
    const auto it = computed.find(s.digest);
    if (it == computed.end() || it->second != s.payload) {
      hits.fail("cache_hit payload differs " + s.digest);
    }
  }
  const bool first = reference.empty();
  for (const auto& [digest, payload] : computed) {
    if (first) {
      reference.emplace(digest, payload);
    } else if (reference.count(digest) == 0 || reference.at(digest) != payload) {
      repeat.fail(digest);
    }
  }
  return {hits, counts, digests, repeat, outcomes};
}

/// One sampled point per engine kind, run in process through run_sweep,
/// must equal the daemon's payload for the same digest.
check_result check_in_process(const std::vector<request>& requests,
                              const std::map<std::string, std::string>& reference,
                              std::vector<std::size_t>& sampled) {
  check_result out{"in_process_equals_daemon"};
  std::map<std::string, bool> seen;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const request& r = requests[i];
    std::string kind{std::to_string(static_cast<int>(scenario::resolved_engine(r.spec)))};
    if (r.spec.topology.family != scenario::topology_spec::family_kind::none) kind += "+graph";
    if (seen[kind]) continue;
    seen[kind] = true;
    sampled.push_back(i);
    scenario::scenario_spec base = scenario::parse_scenario(r.text);
    const std::vector<std::vector<std::pair<std::string, std::string>>> grid{
        {{"params.beta", r.beta}}};
    core::run_config config = r.config;
    config.threads = 0;
    const auto results = scenario::run_sweep(base, grid, config);
    const std::string payload =
        perfbench::point_payload(results[0].spec, config, results[0].probes);
    const auto it = reference.find(r.digest);
    if (it == reference.end() || it->second != payload) out.fail(r.scenario + " " + r.beta);
  }
  return out;
}

// --- report -------------------------------------------------------------------

/// Daemon start-ups an untraced run times at least: the first pass's start
/// plus start-ups that serve no pass.
constexpr std::int64_t k_setup_starts = 3;
/// Passes an untraced run measures at least, however short --seconds is.
constexpr std::int64_t k_min_passes = 3;

int run(const flag_set& flags) {
  const std::string binary = std::filesystem::absolute(flags.get_string("daemon")).string();
  std::string spans_path = flags.get_string("spans");
  if (!spans_path.empty()) spans_path = std::filesystem::absolute(spans_path).string();
  const double seconds = flags.get_double("seconds");
  const bool traced = flags.get_int64("trace") != 0;
  const std::vector<request> requests = load_stream(flags.get_string("stream"));
  // Work inside the work directory with relative paths: a Unix socket path
  // must fit sockaddr_un (108 bytes) however deep the checkout lies, and
  // the daemon inherits this directory.
  std::filesystem::create_directories(flags.get_string("work-dir"));
  std::filesystem::current_path(flags.get_string("work-dir"));
  const std::filesystem::path work_dir{"."};

  std::vector<double> setup_seconds;
  std::vector<pass_result> passes;
  std::vector<check_result> checks;
  std::map<std::string, std::string> reference;
  std::vector<std::pair<std::string, double>> layers;

  // Set-up repetitions that serve no pass: start, connect, stop.
  const std::int64_t extra_setups = traced ? 0 : k_setup_starts - 1;
  for (std::int64_t k = 0; k < extra_setups; ++k) {
    const std::filesystem::path dir = work_dir / "setup";
    std::filesystem::remove_all(dir);
    const std::int64_t start = now_ns();
    daemon_process daemon{binary, dir};
    connections conns = connect_two(daemon);
    setup_seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  const auto add_checks = [&](const pass_result& pass) {
    for (check_result& c : check_pass(requests, pass, reference)) {
      bool merged = false;
      for (check_result& existing : checks) {
        if (existing.name == c.name) {
          if (!c.ok) existing.fail(c.detail, c.failures);
          merged = true;
        }
      }
      if (!merged) checks.push_back(c);
    }
  };

  const std::int64_t min_passes = traced ? 1 : k_min_passes;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (static_cast<std::int64_t>(passes.size()) < min_passes ||
         (!traced && now_ns() < deadline)) {
    passes.push_back(run_pass(binary, work_dir / "pass", requests, false, setup_seconds));
    add_checks(passes.back());
    if (passes.size() > 1) passes.back().forget_payloads();
  }
  std::vector<std::size_t> sampled;
  checks.push_back(check_in_process(requests, reference, sampled));

  if (traced) {
    const pass_result& plain = passes.front();
    perfbench::recorder::clear();
    const pass_result traced_pass =
        run_pass(binary, work_dir / "pass", requests, true, setup_seconds);
    add_checks(traced_pass);
    const auto client_spans = perfbench::recorder::summarize();
    if (!spans_path.empty()) perfbench::recorder::write_csv(spans_path);
    perfbench::recorder::clear();

    std::vector<double> accept_us;
    std::vector<double> compute_ms;
    std::vector<double> noncompute_ms;
    std::uint64_t hits = 0;
    std::uint64_t rejected = 0;
    for (const sample& s : plain.samples) {
      accept_us.push_back(static_cast<double>(s.accepted_ns - s.submit_ns) * 1e-3);
      if (s.rejected) ++rejected;
      if (s.hit) {
        ++hits;
      } else {
        compute_ms.push_back(s.seconds * 1e3);
        noncompute_ms.push_back(static_cast<double>(s.first_ns - s.submit_ns) * 1e-6 -
                                s.seconds * 1e3);
      }
    }

    // Replay through direct calls, request by request, on a scratch store.
    std::vector<double> parse_us;
    std::vector<double> validate_us;
    std::vector<double> digest_us;
    std::vector<double> get_us;
    std::vector<double> put_ms;
    double covered_ns = 0.0;
    double latency_ns = 0.0;
    const std::filesystem::path scratch = work_dir / "replay-store";
    std::filesystem::remove_all(scratch);
    check_result replay{"replay_store_round_trip"};
    {
      service::result_store store{scratch};
      std::map<std::string, bool> stored;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const request& r = requests[i];
        const sample& s = plain.samples[i];
        std::int64_t t0 = now_ns();
        scenario::scenario_spec spec = scenario::parse_scenario(r.text);
        std::int64_t t1 = now_ns();
        scenario::apply_override(spec, "params.beta", r.beta);
        scenario::validate_spec(spec);
        std::int64_t t2 = now_ns();
        const service::digest128 digest = service::spec_digest(spec, r.config, {});
        std::int64_t t3 = now_ns();
        parse_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        validate_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
        digest_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
        double layer_ns = static_cast<double>(t3 - t0);
        if (!stored[digest.hex()]) {
          stored[digest.hex()] = true;
          const std::int64_t p0 = now_ns();
          store.put(digest, reference.at(digest.hex()));
          const std::int64_t p1 = now_ns();
          put_ms.push_back(static_cast<double>(p1 - p0) * 1e-6);
          layer_ns += static_cast<double>(p1 - p0) + s.seconds * 1e9;
        } else {
          const std::int64_t g0 = now_ns();
          const std::optional<std::string> got = store.get(digest);
          const std::int64_t g1 = now_ns();
          get_us.push_back(static_cast<double>(g1 - g0) * 1e-3);
          layer_ns += static_cast<double>(g1 - g0);
          if (!got || *got != reference.at(digest.hex())) replay.fail(digest.hex());
        }
        covered_ns += layer_ns;
        latency_ns += static_cast<double>(s.first_ns - s.submit_ns);
      }
    }
    std::filesystem::remove_all(scratch);
    checks.push_back(replay);

    // Decorated in-process runs of the sampled points (one per engine kind).
    double step_ns = 0.0;
    double agent_step_count = 0.0;
    double ring_step_ns_per_agent = 0.0;
    double sample_ns = 0.0;
    double sample_count = 0.0;
    double probe_ns = 0.0;
    double probe_count = 0.0;
    double merge_ns = 0.0;
    double merge_count = 0.0;
    double replication_ns = 0.0;
    double replication_count = 0.0;
    double busy_ns = 0.0;
    double capacity_ns = 0.0;
    double wall_nt = 0.0;
    double wall_1t = 0.0;
    double cpu_1t = 0.0;
    const unsigned workers = default_thread_count();
    const scenario::topology_cache_stats before = scenario::shared_topology_stats();
    check_result decorated{"decorated_equals_daemon"};
    for (const std::size_t i : sampled) {
      const request& r = requests[i];
      core::run_config config = r.config;
      config.threads = workers;
      const core::probe_list prototypes = core::make_probes(service::resolved_probes(r.spec, {}));
      const perfbench::traced_factories traced_factories = perfbench::make_traced(
          scenario::make_engine(r.spec), scenario::make_environment(r.spec.environment),
          prototypes, perfbench::harness_clamps_engine_threads(config));
      perfbench::recorder::clear();
      std::int64_t start = now_ns();
      const auto merged = core::run_with_probes(traced_factories.make_engine,
                                                traced_factories.make_env, config,
                                                traced_factories.prototype_pointers());
      const double wall = static_cast<double>(now_ns() - start);
      if (perfbench::point_payload(r.spec, config, merged) != reference.at(r.digest)) {
        decorated.fail(r.scenario);
      }
      const auto spans = perfbench::recorder::summarize();
      perfbench::recorder::clear();
      const auto get = [&spans](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() ? perfbench::span_summary{} : it->second;
      };
      const auto n = static_cast<double>(r.spec.num_agents);
      const perfbench::span_summary step = get("core.step");
      step_ns += static_cast<double>(step.total_ns);
      agent_step_count += static_cast<double>(step.count) * n;
      if (r.spec.topology.family != scenario::topology_spec::family_kind::none && step.count > 0) {
        ring_step_ns_per_agent = static_cast<double>(step.total_ns) / (step.count * n);
      }
      sample_ns += static_cast<double>(get("env.sample").total_ns);
      sample_count += static_cast<double>(get("env.sample").count);
      probe_ns += static_cast<double>(get("core.probe_step").total_ns);
      probe_count += static_cast<double>(get("core.probe_step").count);
      merge_ns += static_cast<double>(get("core.probe_merge").total_ns);
      merge_count += static_cast<double>(get("core.probe_merge").count);
      replication_ns += static_cast<double>(get("core.replication").total_ns);
      replication_count += static_cast<double>(get("core.replication").count);
      busy_ns += static_cast<double>(get("core.replication").total_ns + get("core.reset").total_ns +
                                     get("core.engine_build").total_ns +
                                     get("core.probe_merge").total_ns);
      capacity_ns += wall * workers;
      // Untraced in-process speedup: threads = all cores vs threads = 1.
      start = now_ns();
      (void)scenario::run_probes(r.spec, config);
      wall_nt += static_cast<double>(now_ns() - start);
      core::run_config single = config;
      single.threads = 1;
      const std::int64_t cpu0 = perfbench::process_cpu_ns();
      start = now_ns();
      (void)scenario::run_probes(r.spec, single);
      wall_1t += static_cast<double>(now_ns() - start);
      cpu_1t += static_cast<double>(perfbench::process_cpu_ns() - cpu0);
    }
    checks.push_back(decorated);
    const scenario::topology_cache_stats after = scenario::shared_topology_stats();
    const auto lookups = static_cast<double>((after.hits - before.hits) +
                                             (after.misses - before.misses));

    // The graph and kernel layers at this workload's sizes.
    const scenario::scenario_spec ring = scenario::get_scenario("ring");
    std::uint64_t ring_bytes = 0;
    const double build_s = median_us(0.1, [&] {
                             const graph::graph g = scenario::build_topology(
                                 ring.topology, static_cast<std::size_t>(ring.num_agents));
                             ring_bytes = g.offsets().size() * sizeof(std::size_t) +
                                          g.adjacency().size() * sizeof(graph::graph::vertex);
                           }) * 1e-6;
    const double net2 = perfbench::kernel_net2_ns_per_agent(
        static_cast<std::size_t>(ring.num_agents), 3, 0.2);
    const double mixed = perfbench::kernel_mixed_ns_per_agent(1000, 4, 3, 0.2);

    const auto set = [&layers](const char* name, double value) {
      layers.emplace_back(name, value);
    };
    set("graph.build_s", build_s);
    set("graph.bytes_computed_mb",
        static_cast<double>(ring_bytes + ring.num_agents * sizeof(std::uint32_t)) / (1 << 20));
    set("host.llc_mb", static_cast<double>(perfbench::llc_bytes()) / (1 << 20));
    set("scenario.topology_cache_hit_ratio",
        lookups == 0 ? 0.0 : static_cast<double>(after.hits - before.hits) / lookups);
    set("core.step_ns_per_agent", agent_step_count == 0 ? 0.0 : step_ns / agent_step_count);
    set("core.kernel_net2_ns_per_agent", net2);
    set("core.kernel_mixed_ns_per_agent", mixed);
    set("core.view_walk_ns_per_agent_derived", ring_step_ns_per_agent - net2);
    set("env.sample_ns", sample_count == 0 ? 0.0 : sample_ns / sample_count);
    set("core.probe_step_ns", probe_count == 0 ? 0.0 : probe_ns / probe_count);
    set("core.probe_merge_us", merge_count == 0 ? 0.0 : merge_ns / merge_count * 1e-3);
    set("core.replication_ms",
        replication_count == 0 ? 0.0 : replication_ns / replication_count * 1e-6);
    set("core.replications", replication_count);
    set("support.pool_busy_frac", capacity_ns == 0 ? 0.0 : busy_ns / capacity_ns);
    set("support.speedup_vs_1t", wall_nt == 0 ? 0.0 : wall_1t / wall_nt);
    set("process.cpu_wall_ratio",
        plain.daemon_cpu_s / (static_cast<double>(plain.wall_ns) * 1e-9));
    set("process.cpu_wall_ratio_1t", wall_1t == 0 ? 0.0 : cpu_1t / wall_1t);
    set("scenario.parse_us", perfbench::median(parse_us));
    set("scenario.validate_us", perfbench::median(validate_us));
    set("service.digest_us", perfbench::median(digest_us));
    set("service.accept_us", perfbench::median(accept_us));
    set("service.store_get_us", perfbench::median(get_us));
    set("service.store_put_ms", perfbench::median(put_ms));
    set("service.point_compute_ms", perfbench::median(compute_ms));
    set("service.noncompute_ms", perfbench::median(noncompute_ms));
    set("service.hit_ratio", static_cast<double>(hits) / static_cast<double>(requests.size()));
    set("service.rejected", static_cast<double>(rejected));
    set("service.store_objects", static_cast<double>(plain.store.files));
    set("service.store_mb", static_cast<double>(plain.store.bytes) / (1 << 20));
    set("trace.overhead_frac",
        static_cast<double>(traced_pass.wall_ns) / static_cast<double>(plain.wall_ns) - 1.0);
    set("trace.unaccounted_frac", latency_ns == 0 ? 0.0 : 1.0 - covered_ns / latency_ns);
    std::uint64_t client_span_count = 0;
    for (const auto& [name, summary] : client_spans) client_span_count += summary.count;
    set("trace.spans", static_cast<double>(client_span_count));
  }

  // --- report -------------------------------------------------------------------
  std::ostringstream out;
  json_writer json{out, 0};
  json.begin_object();
  write_numbers(json, "setup_s", setup_seconds);
  json.key("passes").begin_array();
  for (const pass_result& pass : passes) {
    std::vector<double> computed_ms;
    std::vector<double> hit_ms;
    std::uint64_t agent_steps = 0;
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const sample& s = pass.samples[i];
      const double ms = static_cast<double>(s.first_ns - s.submit_ns) * 1e-6;
      if (s.failed || s.rejected) {
        ++failed;
      } else if (s.hit) {
        hit_ms.push_back(ms);
      } else {
        computed_ms.push_back(ms);
        agent_steps += requests[i].agent_steps;
      }
    }
    json.begin_object();
    json.key("wall_s").value(static_cast<double>(pass.wall_ns) * 1e-9);
    json.key("daemon_cpu_s").value(pass.daemon_cpu_s);
    json.key("daemon_maxrss_mb").value(pass.daemon_maxrss_mb);
    json.key("requests").value(static_cast<std::uint64_t>(requests.size()));
    json.key("failed").value(failed);
    json.key("agent_steps").value(agent_steps);
    json.key("store_objects").value(pass.store.files);
    json.key("store_bytes").value(pass.store.bytes);
    write_numbers(json, "first_result_ms", computed_ms);
    write_numbers(json, "cache_hit_ms", hit_ms);
    json.end_object();
  }
  json.end_array();
  std::string all_payloads;
  for (const auto& [digest, payload] : reference) all_payloads += digest + payload;
  json.key("result_digest").value(service::fnv1a_128(all_payloads).hex());
  perfbench::write_checks(json, checks);
  json.key("layers").begin_object();
  for (const auto& [name, value] : layers) json.key(name).value(value);
  json.end_object();
  json.key("provenance").begin_object();
  json.key("nproc").value(static_cast<std::uint64_t>(default_thread_count()));
  json.key("isa").value(perfbench::active_isa_name());
  json.key("llc_bytes").value(perfbench::llc_bytes());
  json.key("store_filesystem").value(passes.front().store_filesystem);
  json.key("requests").value(static_cast<std::uint64_t>(requests.size()));
  // The largest single point: graph arrays plus choices, previous choices
  // and one view row per agent (computed from sizes, not measured).
  std::uint64_t working_set = 0;
  for (const request& r : requests) {
    std::uint64_t bytes = r.spec.num_agents * 3 * sizeof(std::uint32_t);
    if (r.spec.topology.family != scenario::topology_spec::family_kind::none) {
      const auto graph = scenario::shared_topology(r.spec.topology,
                                                   static_cast<std::size_t>(r.spec.num_agents));
      bytes += graph->offsets().size() * sizeof(std::size_t) +
               graph->adjacency().size() * sizeof(graph::graph::vertex);
    }
    working_set = std::max(working_set, bytes);
  }
  json.key("working_set_bytes_computed").value(working_set);
  json.key("store_bytes").value(passes.front().store.bytes);
  json.end_object();
  json.end_object();
  std::cout << out.str() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  flag_set flags{"perfbench_client", "closed-loop sociolearnd client of the benchmark"};
  flags.add_string("daemon", "", "path of the sociolearnd binary");
  flags.add_string("stream", "", "request stream: 'scenario beta seed horizon reps' lines");
  flags.add_string("work-dir", "", "directory for daemon stores, sockets and logs");
  flags.add_double("seconds", 10.0, "measured time (untraced)");
  flags.add_int64("trace", 0, "1 = traced run (per-layer numbers)");
  flags.add_string("spans", "", "traced run: write the client spans here as CSV");
  if (flags.parse(argc, argv) != parse_status::ok) return 2;
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return run(flags);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_client: " << e.what() << '\n';
    return 1;
  }
}
