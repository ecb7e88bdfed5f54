#pragma once

/// \file distributions.h
/// Exact samplers for the distributions the simulators need, implemented
/// from scratch for cross-platform reproducibility (see rng.h).
///
/// The aggregate finite-population simulator advances a whole population in
/// O(m) per step by sampling one multinomial (stage 1: who considers which
/// option) and m binomials (stage 2: who commits).  Binomial sampling
/// therefore has to be exact *and* O(1)-ish for n up to 10^7: we use
/// inversion for small n·p and Hormann's BTRS transformed-rejection
/// algorithm for the rest.

#include <cstdint>
#include <span>

#include "support/rng.h"

namespace sgl {

/// Standard normal draw (Marsaglia polar method; the spare value is
/// discarded so the sampler is stateless).
[[nodiscard]] double sample_standard_normal(rng& gen) noexcept;

/// Normal(mean, sd) draw.  Precondition: sd >= 0.
[[nodiscard]] double sample_normal(rng& gen, double mean, double sd) noexcept;

/// Exponential(rate) draw by inversion.  Precondition: rate > 0.
[[nodiscard]] double sample_exponential(rng& gen, double rate) noexcept;

/// Geometric: number of failures before the first success, support {0,1,...}.
/// Precondition: 0 < p <= 1.
[[nodiscard]] std::uint64_t sample_geometric(rng& gen, double p) noexcept;

/// Binomial(n, p) draw, exact for all 0 <= p <= 1 and n >= 0.
/// Uses inversion when n·min(p,1-p) < 10 and BTRS otherwise.
[[nodiscard]] std::uint64_t sample_binomial(rng& gen, std::uint64_t n, double p) noexcept;

/// Gamma(shape, 1) draw (Marsaglia–Tsang squeeze, with the standard boost
/// for shape < 1).  Precondition: shape > 0.
[[nodiscard]] double sample_gamma(rng& gen, double shape) noexcept;

/// Beta(a, b) draw via two gammas.  Preconditions: a > 0, b > 0.
/// Used by the Thompson-sampling baseline's Beta-Bernoulli posterior.
[[nodiscard]] double sample_beta(rng& gen, double a, double b) noexcept;

/// Multinomial(n, weights): fills `out[j]` with the number of the n trials
/// that landed in category j.  `weights` need not be normalized but must be
/// non-negative with a positive sum.  out.size() must equal weights.size().
void sample_multinomial(rng& gen, std::uint64_t n, std::span<const double> weights,
                        std::span<std::uint64_t> out);

/// Categorical draw proportional to `weights` (linear scan).
/// Precondition: weights non-negative with positive sum.
[[nodiscard]] std::size_t sample_categorical(rng& gen, std::span<const double> weights) noexcept;

/// Fisher–Yates shuffle driven by our rng (std::shuffle's draw pattern is
/// implementation-defined).
template <typename T>
void shuffle(rng& gen, std::span<T> items) noexcept {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(gen.next_below(i));
    using std::swap;
    swap(items[i - 1], items[j]);
  }
}

}  // namespace sgl
