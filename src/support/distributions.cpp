#include "support/distributions.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sgl {
namespace {

/// Stirling tail correction f_c(k) = ln k! - [k ln k - k + 0.5 ln(2 pi k)],
/// as tabulated in Hormann (1993) for the BTRS binomial sampler.
[[nodiscard]] double stirling_correction(double k) noexcept {
  static constexpr double table[] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.009255462182712733,
      0.008330563433362871};
  if (k < 10.0) return table[static_cast<int>(k)];
  const double kp1_sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1_sq) / kp1_sq) / (k + 1.0);
}

/// Binomial(n, p) by sequential inversion; requires n * p = O(10) so the
/// expected scan length (and the pmf ratio recurrence) stays well behaved.
[[nodiscard]] std::uint64_t binomial_inversion(rng& gen, std::uint64_t n, double p) noexcept {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  double r = std::pow(q, static_cast<double>(n));  // pmf at 0
  double u = gen.next_double();
  std::uint64_t k = 0;
  while (u > r && k < n) {
    u -= r;
    ++k;
    r *= (a / static_cast<double>(k)) - s;
  }
  return k;
}

/// Binomial(n, p) by Hormann's BTRS transformed rejection.
/// Preconditions: p <= 0.5 and n * p >= 10.
[[nodiscard]] std::uint64_t binomial_btrs(rng& gen, std::uint64_t n, double p) noexcept {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / q;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double m = std::floor((nd + 1.0) * p);

  for (;;) {
    const double u = gen.next_double() - 0.5;
    double v = gen.next_double();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(kd);

    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        stirling_correction(m) + stirling_correction(nd - m) -
        stirling_correction(kd) - stirling_correction(nd - kd);
    if (v <= upper) return static_cast<std::uint64_t>(kd);
  }
}

}  // namespace

double sample_standard_normal(rng& gen) noexcept {
  for (;;) {
    const double x = 2.0 * gen.next_double() - 1.0;
    const double y = 2.0 * gen.next_double() - 1.0;
    const double s = x * x + y * y;
    if (s > 0.0 && s < 1.0) return x * std::sqrt(-2.0 * std::log(s) / s);
  }
}

double sample_normal(rng& gen, double mean, double sd) noexcept {
  return mean + sd * sample_standard_normal(gen);
}

double sample_exponential(rng& gen, double rate) noexcept {
  // 1 - U in (0, 1], so the log is finite.
  return -std::log(1.0 - gen.next_double()) / rate;
}

std::uint64_t sample_geometric(rng& gen, double p) noexcept {
  if (p >= 1.0) return 0;
  const double u = 1.0 - gen.next_double();  // (0, 1]
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

std::uint64_t sample_binomial(rng& gen, std::uint64_t n, double p) noexcept {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - sample_binomial(gen, n, 1.0 - p);
  if (static_cast<double>(n) * p < 10.0) return binomial_inversion(gen, n, p);
  return binomial_btrs(gen, n, p);
}

double sample_gamma(rng& gen, double shape) noexcept {
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a + 1) * U^{1/a}.
    const double u = 1.0 - gen.next_double();  // (0, 1]
    return sample_gamma(gen, shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = sample_standard_normal(gen);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = 1.0 - gen.next_double();  // (0, 1]
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

double sample_beta(rng& gen, double a, double b) noexcept {
  const double x = sample_gamma(gen, a);
  const double y = sample_gamma(gen, b);
  const double total = x + y;
  if (total <= 0.0) return 0.5;  // degenerate numerical corner
  return x / total;
}

void sample_multinomial(rng& gen, std::uint64_t n, std::span<const double> weights,
                        std::span<std::uint64_t> out) {
  if (weights.size() != out.size()) {
    throw std::invalid_argument{"sample_multinomial: size mismatch"};
  }
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      throw std::invalid_argument{"sample_multinomial: weights must be finite and >= 0"};
    }
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument{"sample_multinomial: weights sum to zero"};

  std::uint64_t remaining = n;
  double mass_left = total;
  for (std::size_t j = 0; j + 1 < weights.size(); ++j) {
    if (remaining == 0 || mass_left <= 0.0) {
      out[j] = 0;
      continue;
    }
    const double cond = std::clamp(weights[j] / mass_left, 0.0, 1.0);
    const std::uint64_t draw = sample_binomial(gen, remaining, cond);
    out[j] = draw;
    remaining -= draw;
    mass_left -= weights[j];
  }
  if (!out.empty()) out[out.size() - 1] = remaining;
}

std::size_t sample_categorical(rng& gen, std::span<const double> weights) noexcept {
  double total = 0.0;
  for (const double w : weights) total += w;
  double u = gen.next_double() * total;
  for (std::size_t j = 0; j < weights.size(); ++j) {
    u -= weights[j];
    if (u < 0.0) return j;
  }
  // Floating-point slack: fall back to the last positive-weight category.
  for (std::size_t j = weights.size(); j-- > 0;) {
    if (weights[j] > 0.0) return j;
  }
  return weights.size() - 1;
}

}  // namespace sgl
