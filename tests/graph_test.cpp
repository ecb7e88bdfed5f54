#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "support/rng.h"

namespace sgl::graph {
namespace {

// --- construction ----------------------------------------------------------------

TEST(graph_build, dedupes_and_symmetrizes) {
  const std::vector<graph::edge> edges{{0, 1}, {1, 0}, {0, 1}, {1, 2}};
  const graph g{3, edges};
  EXPECT_EQ(g.num_edges(), 2U);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(graph_build, neighbor_lists_are_sorted) {
  const std::vector<graph::edge> edges{{3, 0}, {1, 0}, {2, 0}};
  const graph g{4, edges};
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(g.degree(0), 3U);
}

TEST(graph_build, rejects_bad_edges) {
  EXPECT_THROW((graph{2, std::vector<graph::edge>{{0, 0}}}), std::invalid_argument);
  EXPECT_THROW((graph{2, std::vector<graph::edge>{{0, 5}}}), std::invalid_argument);
  EXPECT_THROW((graph{0, std::vector<graph::edge>{}}), std::invalid_argument);
}

TEST(graph_build, out_of_range_queries_throw) {
  const graph g{2, std::vector<graph::edge>{{0, 1}}};
  EXPECT_THROW((void)g.degree(5), std::out_of_range);
  EXPECT_THROW((void)g.neighbors(5), std::out_of_range);
}

TEST(graph_build, edgeless_graph) {
  const graph g{3, std::vector<graph::edge>{}};
  EXPECT_EQ(g.num_edges(), 0U);
  EXPECT_EQ(g.degree(1), 0U);
  EXPECT_FALSE(g.is_connected());
  EXPECT_EQ(g.min_degree(), 0U);
}

// --- construction oracle ---------------------------------------------------------

/// A graph's raw CSR arrays, for byte-for-byte comparisons.
struct csr {
  std::vector<std::size_t> offsets;
  std::vector<graph::vertex> adjacency;
  bool operator==(const csr&) const = default;
};

csr csr_of(const graph& g) {
  return {{g.offsets().begin(), g.offsets().end()},
          {g.adjacency().begin(), g.adjacency().end()}};
}

/// The reference construction: normalize every edge to (min, max), sort the
/// whole list, drop duplicates, then fill and sort each neighbour list.
/// Quadratic in nothing, but a global O(E log E) sort and a full copy of the
/// list; the graph constructor must produce exactly these arrays.
csr reference_csr(std::size_t n, const std::vector<graph::edge>& edges) {
  if (n == 0) throw std::invalid_argument{"graph: zero vertices"};
  std::vector<graph::edge> normalized;
  normalized.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    if (u >= n || v >= n) throw std::invalid_argument{"graph: edge endpoint out of range"};
    if (u == v) throw std::invalid_argument{"graph: self-loop"};
    normalized.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(normalized.begin(), normalized.end());
  normalized.erase(std::unique(normalized.begin(), normalized.end()), normalized.end());

  csr out;
  std::vector<std::size_t> degree(n, 0);
  for (const auto& [u, v] : normalized) {
    ++degree[u];
    ++degree[v];
  }
  out.offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) out.offsets[v + 1] = out.offsets[v] + degree[v];
  out.adjacency.resize(out.offsets.back());
  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (const auto& [u, v] : normalized) {
    out.adjacency[cursor[u]++] = v;
    out.adjacency[cursor[v]++] = u;
  }
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(out.adjacency.begin() + static_cast<std::ptrdiff_t>(out.offsets[v]),
              out.adjacency.begin() + static_cast<std::ptrdiff_t>(out.offsets[v + 1]));
  }
  return out;
}

/// Asserts that the constructor matches the reference on `edges`.
void expect_matches_reference(std::size_t n, const std::vector<graph::edge>& edges,
                              const std::string& label) {
  EXPECT_EQ(csr_of(graph(n, edges)), reference_csr(n, edges)) << label;
}

/// Every edge of g once, as (lower, higher).
std::vector<graph::edge> edge_list(const graph& g) {
  std::vector<graph::edge> edges;
  for (graph::vertex v = 0; v < g.num_vertices(); ++v) {
    for (const graph::vertex w : g.neighbors(v)) {
      if (v < w) edges.emplace_back(v, w);
    }
  }
  return edges;
}

/// A hostile rewrite of an edge list: shuffled, about a third of the edges
/// flipped, and about a quarter repeated in one orientation or the other.
std::vector<graph::edge> scramble(std::vector<graph::edge> edges, rng& gen) {
  const std::size_t original = edges.size();
  for (std::size_t i = 0; i < original; ++i) {
    if (gen.next_below(4) == 0) {
      const auto [u, v] = edges[i];
      edges.push_back(gen.next_below(2) == 0 ? graph::edge{u, v} : graph::edge{v, u});
    }
  }
  for (auto& [u, v] : edges) {
    if (gen.next_below(3) == 0) std::swap(u, v);
  }
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[gen.next_below(i)]);
  }
  return edges;
}

/// A seeded random edge list over n vertices: m random non-loop pairs,
/// some repeated in both orientations.  Small m against n leaves vertices
/// isolated; n = 1 admits no edge at all.
std::vector<graph::edge> random_edges(std::size_t n, std::size_t m, rng& gen) {
  std::vector<graph::edge> edges;
  if (n < 2) return edges;
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<graph::vertex>(gen.next_below(n));
    auto v = static_cast<graph::vertex>(gen.next_below(n - 1));
    if (v >= u) ++v;
    edges.emplace_back(u, v);
  }
  return scramble(std::move(edges), gen);
}

TEST(graph_oracle, random_edge_lists_match_the_reference) {
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    rng gen{seed};
    const std::size_t n = seed % 40 == 0 ? 1 : 1 + gen.next_below(seed % 2 == 0 ? 12 : 400);
    const std::size_t m = gen.next_below(3 * n + 1);
    expect_matches_reference(n, random_edges(n, m, gen), "seed " + std::to_string(seed));
  }
}

TEST(graph_oracle, hub_above_two_to_the_sixteen_matches_the_reference) {
  // Vertex 4321 joins every other vertex, each spoke listed twice in
  // opposite orientations, among a sprinkle of random edges: one list far
  // longer than any small-sort threshold, and enough edges for a
  // multi-part scatter.
  const std::size_t n = (std::size_t{1} << 16) + 5000;
  constexpr graph::vertex hub = 4321;
  rng gen{99};
  std::vector<graph::edge> edges;
  for (graph::vertex v = 0; v < n; ++v) {
    if (v == hub) continue;
    edges.emplace_back(hub, v);
    edges.emplace_back(v, hub);
  }
  const std::vector<graph::edge> extra = random_edges(n, n, gen);
  edges.insert(edges.end(), extra.begin(), extra.end());
  edges = scramble(std::move(edges), gen);
  expect_matches_reference(n, edges, "hub");
  EXPECT_EQ(graph(n, edges).degree(hub), n - 1);
}

TEST(graph_oracle, isolated_vertices_and_a_single_vertex) {
  expect_matches_reference(1, {}, "n = 1");
  expect_matches_reference(9, {}, "edgeless");
  expect_matches_reference(9, {{8, 0}, {0, 8}, {8, 0}}, "only the ends");
}

TEST(graph_oracle, every_generator_family_matches_the_reference) {
  rng gen{2024};
  const std::vector<std::pair<std::string, graph>> families{
      {"complete", graph::complete(40)},
      {"ring", graph::ring(300)},
      {"ring of two", graph::ring(2)},
      {"grid", graph::grid(12, 17, false)},
      {"torus", graph::grid(12, 17, true)},
      {"star", graph::star(500)},
      {"erdos_renyi", graph::erdos_renyi(300, 0.05, gen)},
      {"watts_strogatz", graph::watts_strogatz(3000, 4, 0.2, gen)},
      {"barabasi_albert", graph::barabasi_albert(60000, 5, gen)},
      {"two_cliques", graph::two_cliques(30, 4)},
  };
  for (const auto& [name, g] : families) {
    const std::vector<graph::edge> edges = edge_list(g);
    // The generator's CSR is the canonical one for its edge set...
    EXPECT_EQ(csr_of(g), reference_csr(g.num_vertices(), edges)) << name;
    // ...and the constructor rebuilds it from any scrambling of that set.
    expect_matches_reference(g.num_vertices(), scramble(edges, gen), name);
  }
}

/// Barabási–Albert as first written: an explicit endpoint multiset beside
/// the edge list and a fresh target vector per vertex.  The generator must
/// consume the RNG call for call like this, and so build the same graph.
std::vector<graph::edge> reference_barabasi_albert_edges(std::size_t n, std::size_t attach,
                                                         rng& gen) {
  std::vector<graph::edge> edges;
  std::vector<graph::vertex> endpoints;
  for (std::uint32_t u = 0; u <= attach; ++u) {
    for (std::uint32_t v = u + 1; v <= attach; ++v) {
      edges.emplace_back(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (auto v = static_cast<graph::vertex>(attach + 1); v < n; ++v) {
    std::vector<graph::vertex> targets;
    while (targets.size() < attach) {
      const graph::vertex t = endpoints[gen.next_below(endpoints.size())];
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) targets.push_back(t);
    }
    for (const graph::vertex t : targets) {
      edges.emplace_back(v, t);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return edges;
}

TEST(graph_oracle, barabasi_albert_consumes_the_rng_like_the_endpoint_multiset) {
  for (const auto& [n, attach, seed] : std::vector<std::tuple<std::size_t, std::size_t,
                                                              std::uint64_t>>{
           {2, 1, 1}, {7, 6, 2}, {50, 1, 3}, {400, 3, 4}, {5000, 8, 5}, {30000, 5, 6}}) {
    rng reference_gen{seed};
    rng gen{seed};
    const csr expected =
        reference_csr(n, reference_barabasi_albert_edges(n, attach, reference_gen));
    EXPECT_EQ(csr_of(graph::barabasi_albert(n, attach, gen)), expected)
        << "n " << n << ", attach " << attach;
    EXPECT_EQ(gen, reference_gen) << "the generator must leave the stream where it was";
  }
}

TEST(graph_oracle, either_side_of_the_scatter_part_threshold_matches_the_reference) {
  // The scatter runs in one part below 2^16 edges and in up to one part per
  // hardware thread above; each part count must give the reference bytes.
  constexpr std::size_t per_part = std::size_t{1} << 16;
  rng gen{77};
  for (const std::size_t m : {per_part - 1, per_part, 2 * per_part + 1, 9 * per_part}) {
    const std::size_t n = m / 6 + 1;
    std::vector<graph::edge> edges = random_edges(n, m, gen);
    edges.resize(m);  // scramble() appends repeats; keep exactly m edges
    expect_matches_reference(n, edges, "m " + std::to_string(m));
  }
}

/// The message of the invalid_argument that constructing throws.
std::string construction_error(std::size_t n, const std::vector<graph::edge>& edges) {
  try {
    const graph g{n, edges};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no exception";
}

TEST(graph_oracle, first_bad_edge_in_list_order_decides_the_exception) {
  const std::string loop = "graph: self-loop";
  const std::string range = "graph: edge endpoint out of range";
  EXPECT_EQ(construction_error(4, {{0, 1}, {1, 2}, {3, 3}, {0, 9}}), loop);
  EXPECT_EQ(construction_error(4, {{0, 1}, {1, 2}, {0, 9}, {3, 3}}), range);
  EXPECT_EQ(construction_error(4, {{2, 2}, {0, 4}}), loop);
  EXPECT_EQ(construction_error(4, {{4, 4}, {1, 1}}), range);  // out of range wins on one edge
  EXPECT_EQ(construction_error(0, {{0, 0}}), "graph: zero vertices");
  // The reference agrees on every case.
  for (const auto& edges : std::vector<std::vector<graph::edge>>{
           {{0, 1}, {1, 2}, {3, 3}, {0, 9}}, {{0, 1}, {1, 2}, {0, 9}, {3, 3}}, {{4, 4}, {1, 1}}}) {
    std::string expected;
    try {
      (void)reference_csr(4, edges);
    } catch (const std::invalid_argument& e) {
      expected = e.what();
    }
    EXPECT_EQ(construction_error(4, edges), expected);
  }
}

// --- golden CSR digests at scale ---------------------------------------------------

/// FNV-1a over the CSR arrays: each offset as 8 little-endian bytes, then
/// each neighbour as 4.
std::uint64_t csr_digest(const graph& g) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t value, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      hash ^= (value >> (8 * b)) & 0xFFU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const std::size_t offset : g.offsets()) mix(offset, 8);
  for (const graph::vertex w : g.adjacency()) mix(w, 4);
  return hash;
}

// Captured from the sort-based constructor and the endpoint-multiset
// Barabási–Albert generator.  At this scale the target-retry loop runs
// often and the hubs reach degree in the thousands, so these pin the
// generators' RNG consumption where the small golden runs cannot.
TEST(graph_golden, barabasi_albert_200k_csr_digest) {
  rng gen{2017};
  EXPECT_EQ(csr_digest(graph::barabasi_albert(200000, 5, gen)), 0x5262d892fdfcf720ULL);
}

TEST(graph_golden, watts_strogatz_200k_csr_digest) {
  rng gen{2017};
  EXPECT_EQ(csr_digest(graph::watts_strogatz(200000, 5, 0.1, gen)), 0x19986e2f66932628ULL);
}

// --- generators -------------------------------------------------------------------

TEST(complete_graph, structure) {
  const graph g = graph::complete(6);
  EXPECT_EQ(g.num_vertices(), 6U);
  EXPECT_EQ(g.num_edges(), 15U);
  EXPECT_EQ(g.min_degree(), 5U);
  EXPECT_EQ(g.max_degree(), 5U);
  EXPECT_TRUE(g.is_connected());
  EXPECT_DOUBLE_EQ(g.average_degree(), 5.0);
}

TEST(complete_graph, singleton) {
  const graph g = graph::complete(1);
  EXPECT_EQ(g.num_vertices(), 1U);
  EXPECT_EQ(g.num_edges(), 0U);
  EXPECT_TRUE(g.is_connected());
}

TEST(ring_graph, structure) {
  const graph g = graph::ring(8);
  EXPECT_EQ(g.num_edges(), 8U);
  EXPECT_EQ(g.min_degree(), 2U);
  EXPECT_EQ(g.max_degree(), 2U);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(g.has_edge(7, 0));
}

TEST(ring_graph, degenerate_sizes) {
  const graph pair = graph::ring(2);
  EXPECT_EQ(pair.num_edges(), 1U);  // a single edge, not a double edge
  EXPECT_TRUE(pair.is_connected());
  const graph single = graph::ring(1);
  EXPECT_EQ(single.num_edges(), 0U);
}

TEST(grid_graph, lattice_structure) {
  const graph g = graph::grid(3, 4, false);
  EXPECT_EQ(g.num_vertices(), 12U);
  // 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8.
  EXPECT_EQ(g.num_edges(), 17U);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.degree(0), 2U);   // corner
  EXPECT_EQ(g.degree(5), 4U);   // interior
}

TEST(grid_graph, torus_is_regular) {
  const graph g = graph::grid(4, 5, true);
  EXPECT_EQ(g.min_degree(), 4U);
  EXPECT_EQ(g.max_degree(), 4U);
  EXPECT_TRUE(g.is_connected());
}

TEST(grid_graph, rejects_empty) {
  EXPECT_THROW(graph::grid(0, 3, false), std::invalid_argument);
}

TEST(star_graph, structure) {
  const graph g = graph::star(7);
  EXPECT_EQ(g.num_edges(), 6U);
  EXPECT_EQ(g.degree(0), 6U);
  EXPECT_EQ(g.degree(3), 1U);
  EXPECT_TRUE(g.is_connected());
}

TEST(erdos_renyi, edge_density_matches_p) {
  rng gen{1};
  const std::size_t n = 200;
  const double p = 0.1;
  const graph g = graph::erdos_renyi(n, p, gen);
  const double expected = p * static_cast<double>(n * (n - 1) / 2);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 4.0 * std::sqrt(expected));
}

TEST(erdos_renyi, extremes) {
  rng gen{2};
  EXPECT_EQ(graph::erdos_renyi(20, 0.0, gen).num_edges(), 0U);
  EXPECT_EQ(graph::erdos_renyi(20, 1.0, gen).num_edges(), 190U);
  EXPECT_THROW(graph::erdos_renyi(5, 1.5, gen), std::invalid_argument);
}

TEST(watts_strogatz, no_rewiring_is_ring_lattice) {
  rng gen{3};
  const graph g = graph::watts_strogatz(20, 3, 0.0, gen);
  EXPECT_EQ(g.num_edges(), 60U);  // n * k
  EXPECT_EQ(g.min_degree(), 6U);
  EXPECT_EQ(g.max_degree(), 6U);
  EXPECT_TRUE(g.is_connected());
}

TEST(watts_strogatz, rewiring_preserves_edge_count) {
  rng gen{4};
  const graph g = graph::watts_strogatz(50, 2, 0.3, gen);
  EXPECT_EQ(g.num_edges(), 100U);
  EXPECT_EQ(g.num_vertices(), 50U);
}

TEST(watts_strogatz, validates_parameters) {
  rng gen{5};
  EXPECT_THROW(graph::watts_strogatz(2, 1, 0.1, gen), std::invalid_argument);
  EXPECT_THROW(graph::watts_strogatz(10, 5, 0.1, gen), std::invalid_argument);
  EXPECT_THROW(graph::watts_strogatz(10, 0, 0.1, gen), std::invalid_argument);
  EXPECT_THROW(graph::watts_strogatz(10, 2, 1.5, gen), std::invalid_argument);
}

TEST(barabasi_albert, size_and_connectivity) {
  rng gen{6};
  const std::size_t n = 100;
  const std::size_t attach = 3;
  const graph g = graph::barabasi_albert(n, attach, gen);
  EXPECT_EQ(g.num_vertices(), n);
  // Seed clique: C(4,2)=6 edges; then (n - attach - 1) * attach.
  EXPECT_EQ(g.num_edges(), 6U + (n - attach - 1) * attach);
  EXPECT_TRUE(g.is_connected());
  EXPECT_GE(g.min_degree(), attach);
}

TEST(barabasi_albert, hubs_emerge) {
  rng gen{7};
  const graph g = graph::barabasi_albert(300, 2, gen);
  // Preferential attachment should create at least one vertex with degree
  // far above the mean (~4).
  EXPECT_GE(g.max_degree(), 12U);
}

TEST(barabasi_albert, validates_parameters) {
  rng gen{8};
  EXPECT_THROW(graph::barabasi_albert(3, 3, gen), std::invalid_argument);
  EXPECT_THROW(graph::barabasi_albert(10, 0, gen), std::invalid_argument);
}

TEST(two_cliques, bottleneck_structure) {
  const graph g = graph::two_cliques(5, 1);
  EXPECT_EQ(g.num_vertices(), 10U);
  EXPECT_EQ(g.num_edges(), 2U * 10U + 1U);  // two K5s + bridge
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(g.has_edge(0, 5));  // the bridge
  EXPECT_FALSE(g.has_edge(1, 6));
}

TEST(two_cliques, multiple_bridges) {
  const graph g = graph::two_cliques(4, 3);
  EXPECT_EQ(g.num_edges(), 2U * 6U + 3U);
  EXPECT_TRUE(g.has_edge(2, 6));
}

TEST(two_cliques, validates_parameters) {
  EXPECT_THROW(graph::two_cliques(1, 1), std::invalid_argument);
  EXPECT_THROW(graph::two_cliques(4, 0), std::invalid_argument);
  EXPECT_THROW(graph::two_cliques(4, 5), std::invalid_argument);
}

// --- connectivity -----------------------------------------------------------------

TEST(is_connected, detects_split_components) {
  const graph g{4, std::vector<graph::edge>{{0, 1}, {2, 3}}};
  EXPECT_FALSE(g.is_connected());
  const graph joined{4, std::vector<graph::edge>{{0, 1}, {2, 3}, {1, 2}}};
  EXPECT_TRUE(joined.is_connected());
}

}  // namespace
}  // namespace sgl::graph
