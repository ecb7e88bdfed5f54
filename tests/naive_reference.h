#pragma once

/// \file naive_reference.h
/// Straight-line reference implementation of the network step, shared by
/// the network-mode and kernel law suites: collect the committed
/// neighbours, pick one uniformly.  It draws from a sequential rng stream,
/// not the engine's counter-addressed words, so every comparison with the
/// engine is statistical, not bitwise.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "support/rng.h"

namespace sgl::test {

class naive_reference {
 public:
  naive_reference(const graph::graph& g, std::size_t m, double mu, double alpha,
                  double beta)
      : g_{g}, m_{m}, mu_{mu}, alpha_{alpha}, beta_{beta},
        choices_(g.num_vertices(), -1), previous_(g.num_vertices(), -1),
        adopter_counts_(m, 0) {}

  void step(std::span<const std::uint8_t> rewards, rng& gen) {
    previous_ = choices_;
    std::fill(adopter_counts_.begin(), adopter_counts_.end(), 0);
    std::vector<std::int32_t> committed;
    for (std::size_t i = 0; i < choices_.size(); ++i) {
      std::size_t considered;
      if (gen.next_bernoulli(mu_)) {
        considered = static_cast<std::size_t>(gen.next_below(m_));
      } else {
        committed.clear();
        for (const auto v : g_.neighbors(static_cast<graph::graph::vertex>(i))) {
          if (previous_[v] >= 0) committed.push_back(previous_[v]);
        }
        considered = committed.empty()
                         ? static_cast<std::size_t>(gen.next_below(m_))
                         : static_cast<std::size_t>(
                               committed[gen.next_below(committed.size())]);
      }
      const double adopt_p = rewards[considered] != 0 ? beta_ : alpha_;
      if (gen.next_bernoulli(adopt_p)) {
        choices_[i] = static_cast<std::int32_t>(considered);
        ++adopter_counts_[considered];
      } else {
        choices_[i] = -1;
      }
    }
  }

  [[nodiscard]] double popularity0() const {
    const std::uint64_t total = adopters();
    if (total == 0) return 1.0 / static_cast<double>(m_);
    return static_cast<double>(adopter_counts_[0]) / static_cast<double>(total);
  }
  [[nodiscard]] std::uint64_t adopters() const {
    return std::accumulate(adopter_counts_.begin(), adopter_counts_.end(),
                           std::uint64_t{0});
  }

 private:
  const graph::graph& g_;
  std::size_t m_;
  double mu_, alpha_, beta_;
  std::vector<std::int32_t> choices_, previous_;
  std::vector<std::uint64_t> adopter_counts_;
};

}  // namespace sgl::test
