#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>

#include <sys/statfs.h>
#include <unistd.h>

#include "core/step_kernel.h"
#include "support/rng.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb(int pid) {
  std::ifstream in{pid == 0 ? std::string{"/proc/self/status"}
                            : "/proc/" + std::to_string(pid) + "/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream out{"/proc/self/clear_refs"};
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::uint64_t llc_bytes() {
  // The highest cache index the kernel lists is the last level.
  std::uint64_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in{"/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) +
                     "/size"};
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
    if (text.back() == 'K') value <<= 10;
    if (text.back() == 'M') value <<= 20;
    best = std::max(best, value);
  }
  if (best == 0) {
    const long size = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (size > 0) best = static_cast<std::uint64_t>(size);
  }
  return best;
}

std::string active_isa_name() {
  return sgl::simd::isa_name(sgl::core::kernel::active_isa());
}

std::string filesystem_name(const std::filesystem::path& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x794C7630: return "overlay";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x65735546: return "fuse";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(info.f_type));
  return hex;
}

tree_size measure_tree(const std::filesystem::path& root) {
  tree_size out;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator{root, ec};
       !ec && it != std::filesystem::recursive_directory_iterator{}; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    ++out.files;
    out.bytes += it->file_size(ec);
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

check_result check_equal(const std::string& name, bool equal, const std::string& what) {
  check_result out{name};
  if (!equal) out.fail(what);
  return out;
}

void write_checks(sgl::json_writer& json, const std::vector<check_result>& checks) {
  json.key("checks").begin_array();
  for (const check_result& check : checks) {
    json.begin_object();
    json.key("name").value(check.name);
    json.key("ok").value(check.ok);
    json.key("detail").value(check.detail);
    json.key("failures").value(check.failures);
    json.end_object();
  }
  json.end_array();
}

void write_numbers(sgl::json_writer& json, const char* key, const std::vector<double>& values) {
  json.key(key).begin_array();
  for (const double v : values) json.value(v);
  json.end_array();
}

namespace {

/// Calls `body` until `seconds` have passed (at least 5 times) and returns
/// the median per-call time in ns divided by `agents`.
template <typename Body>
double ns_per_agent(std::size_t agents, double seconds, Body&& body) {
  std::vector<double> per_agent;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (per_agent.size() < 5 || now_ns() < deadline) {
    const std::int64_t start = now_ns();
    body();
    per_agent.push_back(static_cast<double>(now_ns() - start) / static_cast<double>(agents));
  }
  return median(std::move(per_agent));
}

}  // namespace

double kernel_net2_ns_per_agent(std::size_t agents, std::uint64_t seed, double seconds) {
  sgl::rng fill{seed};
  std::vector<std::uint32_t> rows(agents);
  std::vector<std::int32_t> previous(agents);
  for (std::size_t i = 0; i < agents; ++i) {
    const auto c0 = static_cast<std::uint32_t>(fill.next_u64() % 6);
    const auto c1 = static_cast<std::uint32_t>(fill.next_u64() % 6);
    rows[i] = c0 | (c1 << 16);
    previous[i] = static_cast<std::int32_t>(fill.next_u64() % 3) - 1;
  }
  std::vector<std::int32_t> choices(agents, -1);
  std::vector<std::uint64_t> changed(agents);
  const sgl::core::kernel::net2_fn step = sgl::core::kernel::net2_step();
  // The kernel is an opaque call through a pointer into another
  // translation unit that writes `choices`, so it cannot be elided.
  return ns_per_agent(agents, seconds, [&] {
    std::uint32_t changed_len = 0;
    std::uint64_t stage[2] = {0, 0};
    std::uint64_t adopt[2] = {0, 0};
    sgl::core::kernel::net2_args a;
    a.step_seed = fill.next_u64();
    a.lo = 0;
    a.hi = agents;
    a.rows = rows.data();
    a.previous = previous.data();
    a.choices = choices.data();
    a.t_mu = sgl::prob_to_u64(0.05);
    a.thr_explore[0] = sgl::prob_to_u64(0.05 * 0.65);
    a.thr_explore[1] = sgl::prob_to_u64(0.05 * 0.35);
    a.thr_copy[0] = sgl::prob_to_u64(0.05 + 0.95 * 0.65);
    a.thr_copy[1] = sgl::prob_to_u64(0.05 + 0.95 * 0.35);
    a.changed = changed.data();
    a.changed_len = &changed_len;
    a.stage = stage;
    a.adopt = adopt;
    step(a);
  });
}

double kernel_mixed_ns_per_agent(std::size_t agents, std::size_t options, std::uint64_t seed,
                                 double seconds) {
  sgl::rng fill{seed};
  std::vector<std::uint64_t> alpha_thr(agents);
  std::vector<std::uint64_t> beta_thr(agents);
  for (std::size_t i = 0; i < agents; ++i) {
    const double beta = 0.55 + 0.4 * fill.next_double();
    alpha_thr[i] = sgl::prob_to_u64((1.0 - beta) * fill.next_double());
    beta_thr[i] = sgl::prob_to_u64(beta);
  }
  std::vector<std::uint64_t> pop_cdf(options > 0 ? options - 1 : 0);
  for (std::size_t j = 0; j < pop_cdf.size(); ++j) {
    pop_cdf[j] = sgl::prob_to_u64(static_cast<double>(j + 1) / static_cast<double>(options));
  }
  std::vector<std::int32_t> choices(agents, -1);
  std::vector<std::uint32_t> considered(agents);
  const sgl::core::kernel::mixed_fn step = sgl::core::kernel::mixed_step();
  return ns_per_agent(agents, seconds, [&] {
    sgl::core::kernel::mixed_args a;
    a.step_seed = fill.next_u64();
    a.n = agents;
    a.m = options;
    a.t_mu = sgl::prob_to_u64(0.05);
    a.pop_cdf = pop_cdf.data();
    a.reward_bits = fill.next_u64() & ((options >= 64 ? 0 : (1ULL << options)) - 1);
    a.alpha_thr = alpha_thr.data();
    a.beta_thr = beta_thr.data();
    a.choices = choices.data();
    a.considered = considered.data();
    step(a);
  });
}

}  // namespace perfbench
