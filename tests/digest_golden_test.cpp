// Golden spec_digest values for every registry scenario — the pinned
// content addresses of the service result cache (service/digest.h).
//
// A digest names a cached probe result; if any digest here moves, every
// result cached by a previous build is silently unreachable (cache miss —
// annoying) or, far worse, a STALE result could be served as current if a
// semantic change failed to move the digest.  This table turns both into a
// loud tier-1 failure: it must change exactly when a semantic input
// changes — spec fields, run shape, probe resolution, header format, or
// the k_stream_derivation_id epoch — and never otherwise.
//
// The capture recipe (rerun ONLY on an intentional break, and say so in
// the commit message): hash each registry scenario with horizon 40 /
// 2 replications / seed 7 / no probe override, and replace the table.
// Nothing host-dependent is hashed, so the table holds on every host.
// Last recaptured for the stream tag "counter-v1" (one counter-addressed
// derivation on every agent-based path; the `kernel` field is gone).

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/experiment.h"
#include "scenario/registry.h"
#include "service/digest.h"

namespace {

using namespace sgl;

const std::map<std::string, std::string>& golden_digests() {
  static const std::map<std::string, std::string> golden{
      {"quickstart", "6dfbd2540abb1edc0bf6e24de0318945"},
      {"theorem-infinite", "ef7caaa39a715dee59855658147e24a6"},
      {"theorem-finite", "c65b31f09f0a968d419d6b70511fa1ee"},
      {"nonuniform-start", "c2b11f4451f886bda89dcd8e40e89391"},
      {"ef-exclusive", "ebf1ad4b77f1c5ebb5f7f391b5339771"},
      {"switching-stocks", "f5d1708191f4a8f2c92e8902672064cf"},
      {"drifting-crossover", "2b316f98e1dd4912da6604e950283874"},
      {"ring", "b56271f9823fe985990b93a1f589d46e"},
      {"small-world", "29e69d8890675e9b51c37373b0f097fc"},
      {"two-cliques", "7c3b9cf8e97225284c464a2ace9983e3"},
      {"torus", "1d66e78bfdaebbf0ec6483ee857f30cb"},
      {"network_ring_1e5", "15e5651baa37dd595acb9f92179a31f6"},
      {"network_ba_1e6", "a5ad5e7f40ab707d72d8503c7c836a40"},
      {"network_smallworld_1e6", "f47d0a8030e2f76c01e2b1b33c77d7d4"},
      // Same fields as theorem-finite under another name: names are
      // documentation, so the digests MUST collide — the cache reuses the
      // result.
      {"mixed_baseline", "c65b31f09f0a968d419d6b70511fa1ee"},
      {"switching_recovery", "1fe8e9a6cf57bb749303404c305e7f91"},
      {"two_cliques_consensus", "f6d8a0d2c232216a42c8b8c2923ba614"},
      {"drift_tracking_1e5", "9da30669ee130ce11d966db31c86429d"},
      {"gossip_sensor_1e4", "9bef1ac63fa860bd2e06dae176afc8dd"},
      {"gossip_lossy_sweep", "145875b35c81e1ccf8bdd81755ae8aaa"},
      {"gossip_crash_recovery", "6185255bb3e4adc1f804321f08b48607"},
      {"gossip_ring_300", "89cc5cb24889ddd02678c1fdb2781137"},
      {"gossip_sync_ideal", "4173236d3150af34024e74c91999968d"},
      {"gossip_partition_heal", "de7b7c533dc3492a5dd19c6dd97ca047"},
      {"gossip_crash_waves", "1c1fc3bd7d7115c55eba84459f95318d"},
      {"gossip_degraded_links", "34800af59ef1821f7364251360d48aa0"},
      {"mixture-discernment", "366cf990435e9bbae4097227ff11e1dd"},
  };
  return golden;
}

core::run_config capture_config() {
  core::run_config config;
  config.horizon = 40;
  config.replications = 2;
  config.seed = 7;
  return config;
}

TEST(digest_golden, every_registry_scenario_is_pinned) {
  const auto& golden = golden_digests();
  std::size_t covered = 0;
  const std::vector<std::string> no_probes;
  for (const auto& spec : scenario::all_scenarios()) {
    const auto it = golden.find(spec.name);
    ASSERT_NE(it, golden.end())
        << "scenario '" << spec.name
        << "' has no golden digest; extend the table (capture recipe in "
           "this file's header)";
    ++covered;
    EXPECT_EQ(service::spec_digest(spec, capture_config(), no_probes).hex(),
              it->second)
        << "digest moved for scenario '" << spec.name
        << "' — every previously cached result for it is now unreachable. "
           "If the semantic change is intentional, recapture the table (and "
           "bump k_stream_derivation_id if a stream derivation changed).";
  }
  // Retiring a scenario must retire its golden entry too.
  EXPECT_EQ(covered, golden.size());
}

}  // namespace
