#pragma once

/// \file failpoint.h
/// Deterministic fail-point injection — the service layer's nemesis.
///
/// A fail point is a *named site* compiled into production code at an I/O
/// or scheduling edge (`store.rename`, `socket.read_short`, ...).  The
/// site asks the framework "should I fail right now?"; the framework
/// answers from a per-site trigger scripted by hit count or by a seeded
/// Bernoulli stream.  The call site owns the *meaning* of a firing — throw,
/// return a short count, pretend EINTR — so one framework covers every
/// failure shape without knowing any of them.
///
/// Cost when off: `check()` is one relaxed atomic load and a predicted
/// branch (no string hashing, no locks) whenever no site at all is
/// configured — the framework stays compiled into release binaries, where
/// the same-host perf gate (perfbench/steadiness.py --against) measures it
/// along with everything else.  Configured sites pay a
/// shared-lock map lookup per hit, which only fault-injection runs see.
///
/// Triggers (the `SGL_FAILPOINTS` DSL, also `set()`):
///
///   SGL_FAILPOINTS="store.rename=2;socket.read_short=3..(1);queue.point=p=0.1@42"
///
///   entries   :=  entry (';' entry)*
///   entry     :=  site '=' spec
///   spec      :=  mode [ '(' arg ')' ]
///   mode      :=  'off'            count hits, never fire (A/B baseline)
///              |  N                fire on exactly the Nth hit (1-based)
///              |  N '..'           fire on every hit from the Nth on
///              |  N '..' M         fire on hits N through M inclusive
///              |  'p=' P '@' SEED  fire each hit with probability P,
///                                  decided by a counter-based stream
///                                  keyed on (site, SEED, hit index) — the
///                                  same hits fire for a given seed no
///                                  matter how threads interleave
///   arg       :=  unsigned integer handed to the site when it fires
///                 (site-defined; e.g. the byte cap of a short read)
///
/// The same schedule philosophy as the `faults.*` nemesis DSL of the
/// netsim layer (DESIGN.md "Fault schedules and trace invariants"), aimed
/// at the serving stack instead of the simulated network.
///
/// Thread-safety: `check()`/`hit_count()` may race freely with each other;
/// `configure()`/`set()`/`clear()` swap configuration under an exclusive
/// lock and are meant for test setup / process start, not steady state.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sgl::failpoints {

namespace detail {
/// Number of configured sites; the fast gate for check().
extern std::atomic<int> g_configured_sites;
[[nodiscard]] std::optional<std::uint64_t> check_slow(std::string_view site);
}  // namespace detail

/// True when any site is configured (including `off` sites).
[[nodiscard]] inline bool active() noexcept {
  return detail::g_configured_sites.load(std::memory_order_relaxed) != 0;
}

/// The per-site query compiled into call sites.  Returns nullopt when the
/// site must not fire (the overwhelmingly common case), or the site's
/// configured argument (default 0) when it must.  Counts a hit against
/// `site` whenever that site is configured.
[[nodiscard]] inline std::optional<std::uint64_t> check(std::string_view site) {
  if (!active()) return std::nullopt;
  return detail::check_slow(site);
}

/// Replaces the whole configuration with the parsed DSL string (see the
/// grammar above; empty string = everything off).  Throws
/// std::invalid_argument naming the offending entry on a parse error, in
/// which case the previous configuration is left untouched.
void configure(std::string_view dsl);

/// Configures (or replaces) one site from its spec, e.g. set("store.rename", "2").
void set(std::string_view site, std::string_view spec);

/// Removes every site (check() returns to the one-load fast path).
void clear();

/// Removes one site; returns false when it was not configured.
bool clear(std::string_view site);

/// Hits recorded against a site since it was configured (0 when not
/// configured — unconfigured sites are never counted).
[[nodiscard]] std::uint64_t hit_count(std::string_view site);

/// The configured site names, sorted (diagnostics, daemon startup log).
[[nodiscard]] std::vector<std::string> configured_sites();

/// Reads `SGL_FAILPOINTS` from the environment and configure()s it.
/// No-op when unset or empty.  Tools call this once at startup; a bad
/// value throws like configure().
void init_from_env();

}  // namespace sgl::failpoints
