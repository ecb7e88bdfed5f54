#pragma once

/// \file measure.h
/// What the benchmark programs share: clocks, process accounting, host
/// facts, the direct kernel timings, and the correctness-check record they
/// report.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "support/json.h"

namespace perfbench {

/// steady_clock, in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

/// CPU time of this process (all threads), in nanoseconds.
[[nodiscard]] std::int64_t process_cpu_ns();

/// Peak resident set (VmHWM) of process `pid` so far, in MiB; 0 = this
/// process.  Unlike getrusage's ru_maxrss this is the process's own
/// address space: Linux carries the pre-exec high-water mark of a spawned
/// child over into its ru_maxrss, which would charge the spawner's memory
/// to the child.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// Resets this process's VmHWM to its current resident set (Linux
/// clear_refs), so peak_rss_mb() then reports the peak of what follows.
/// Returns false when the kernel does not allow it.
bool reset_peak_rss();

/// Size of the last-level cache, in bytes (0 when the host does not say).
[[nodiscard]] std::uint64_t llc_bytes();

/// The kernel ISA the dispatcher resolved (core::kernel::active_isa()).
[[nodiscard]] std::string active_isa_name();

/// Filesystem type holding `path` ("ext4", "overlay", "tmpfs", ... or the
/// hex magic when unknown).
[[nodiscard]] std::string filesystem_name(const std::filesystem::path& path);

/// Regular files under `root` and their total size in bytes.
struct tree_size {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] tree_size measure_tree(const std::filesystem::path& root);

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// Median wall time of `body` in microseconds: called until `seconds`
/// have passed, at least 5 times.
template <typename Body>
double median_us(double seconds, Body&& body) {
  std::vector<double> samples;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (samples.size() < 5 || now_ns() < deadline) {
    const std::int64_t start = now_ns();
    body();
    samples.push_back(static_cast<double>(now_ns() - start) * 1e-3);
  }
  return median(std::move(samples));
}

/// One correctness check of a run; every failed operation counts.
struct check_result {
  explicit check_result(std::string check) : name{std::move(check)} {}

  std::string name;
  bool ok = true;
  std::string detail;          ///< the first failure
  std::uint64_t failures = 0;  ///< operations that failed this check

  void fail(const std::string& what, std::uint64_t count = 1) {
    if (ok) detail = what;
    ok = false;
    failures += count;
  }
};

/// A check that passes when `equal`, failing once with `what` otherwise.
[[nodiscard]] check_result check_equal(const std::string& name, bool equal,
                                       const std::string& what);

/// `"checks": [{name, ok, detail, failures}, ...]` into an open object.
void write_checks(sgl::json_writer& json, const std::vector<check_result>& checks);

/// `"key": [values...]` into an open object.
void write_numbers(sgl::json_writer& json, const char* key, const std::vector<double>& values);

/// Direct call to kernel::net2_step() at `agents`: ns per agent, the
/// median of repeated whole-array calls over about `seconds` of wall time.
/// Homogeneous thresholds, committed-neighbour rows drawn from `seed`.
[[nodiscard]] double kernel_net2_ns_per_agent(std::size_t agents, std::uint64_t seed,
                                              double seconds);

/// Direct call to kernel::mixed_step() at `agents` and `options`: ns per
/// agent, measured as kernel_net2_ns_per_agent.  Per-agent thresholds and
/// the popularity ladder are drawn from `seed`.
[[nodiscard]] double kernel_mixed_ns_per_agent(std::size_t agents, std::size_t options,
                                               std::uint64_t seed, double seconds);

}  // namespace perfbench
