#pragma once

/// \file rng.h
/// Deterministic pseudo-random number generation.
///
/// We implement our own generator (xoshiro256** seeded through splitmix64)
/// and our own samplers (see distributions.h) instead of using the
/// `<random>` distributions because the standard leaves distribution
/// algorithms implementation-defined: the same seed yields different
/// streams on different standard libraries.  Every experiment in this
/// repository must be bit-reproducible across platforms and across thread
/// counts, so all stochastic behaviour flows through this header.

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace sgl {

/// One step of the splitmix64 generator; also the recommended seeding
/// function for xoshiro-family generators.  Advances `state` in place and
/// returns the next 64-bit output.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Counter-based (position-addressable) variant of splitmix64: the word the
/// sequential generator seeded at `seed` would emit on its (counter+1)-th
/// call, computed directly from the counter instead of by iterating.  Every
/// per-agent draw of finite_dynamics is one of these (the counter-addressed
/// stream derivation, DESIGN.md): a vector lane evaluates its own counter
/// independently, so draws have no sequential dependency and any scalar
/// loop reproduces any lane's word bit for bit.
[[nodiscard]] constexpr std::uint64_t counter_word(std::uint64_t seed,
                                                  std::uint64_t counter) noexcept {
  std::uint64_t z = seed + (counter + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Probability p ∈ [0,1] as a 64-bit comparison threshold: a uniform word
/// u satisfies u < prob_to_u64(p) with probability p up to 2^-64.  The
/// endpoints are exact-by-convention: p <= 0 maps to 0 (u < 0 never holds)
/// and p >= 1 maps to 2^64-1, which consumers must treat as "always" (the
/// kernels OR in a threshold==max comparison) — that is the only value the
/// open-interval cast below can never produce, since for p < 1 the product
/// p·2^64 rounds to at most 2^64 - 2048.
[[nodiscard]] constexpr std::uint64_t prob_to_u64(double p) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(p * 0x1.0p64);
}

/// floor(word · bound / 2^64) via 32-bit halves — the bounded draw of
/// the counter-addressed stream derivation.  Equivalent to the high word of the 128-bit
/// product (exact for bound < 2^32), i.e. Lemire's multiply-shift without
/// the rejection step: each value's probability deviates from 1/bound by
/// less than 2^-64, and the draw always costs exactly one word, which the
/// vector lanes require.
[[nodiscard]] constexpr std::uint64_t scale_bounded(std::uint64_t word,
                                                    std::uint32_t bound) noexcept {
  const std::uint64_t lo = (word & 0xFFFFFFFFULL) * bound;
  const std::uint64_t hi = (word >> 32) * bound;
  return (hi + (lo >> 32)) >> 32;
}

/// Stateless 64-bit mix of two words; used to derive independent stream
/// seeds from (master seed, stream index) pairs.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ULL + (stream << 1));
  std::uint64_t a = splitmix64_next(s);
  std::uint64_t b = splitmix64_next(s);
  return a ^ std::rotr(b, 23) ^ stream;
}

/// xoshiro256** 1.0 (Blackman & Vigna, public domain reference
/// implementation) — a small, fast, high-quality 256-bit-state generator.
///
/// Satisfies `std::uniform_random_bit_generator`, so it can also drive
/// standard facilities when determinism across platforms is not required
/// (we never rely on that in library code).
class rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state from `seed` via splitmix64, per the authors'
  /// recommendation.  Any seed (including 0) is valid.
  explicit constexpr rng(std::uint64_t seed = 0) noexcept : state_{} {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64_next(s);
  }

  /// An independent generator for logical stream `stream` under a master
  /// `seed`.  Used to give every replication / agent / node its own
  /// deterministic stream regardless of scheduling.
  [[nodiscard]] static constexpr rng from_stream(std::uint64_t seed, std::uint64_t stream) noexcept {
    return rng{mix_seed(seed, stream)};
  }

  /// Derives a child generator from this generator's current state.
  /// Advances this generator.
  [[nodiscard]] constexpr rng split() noexcept { return rng{next_u64() ^ 0xd2b74407b1ce6e93ULL}; }

  /// Next raw 64-bit word.
  constexpr std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  constexpr double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (mask rejection).
  /// Precondition: bound > 0.
  constexpr std::uint64_t next_below(std::uint64_t bound) noexcept {
    const std::uint64_t mask = ~std::uint64_t{0} >> std::countl_zero(bound | 1ULL);
    std::uint64_t x = next_u64() & mask;
    while (x >= bound) x = next_u64() & mask;
    return x;
  }

  /// Uniform integer in [lo, hi] inclusive.  Precondition: lo <= hi.
  constexpr std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1ULL));
  }

  /// Bernoulli(p) draw.  p outside [0,1] is clamped by construction:
  /// p <= 0 always returns false, p >= 1 always returns true.
  constexpr bool next_bernoulli(double p) noexcept { return next_double() < p; }

  // --- std::uniform_random_bit_generator interface -----------------------
  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }
  constexpr result_type operator()() noexcept { return next_u64(); }

  friend constexpr bool operator==(const rng&, const rng&) noexcept = default;

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace sgl
