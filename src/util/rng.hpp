// Deterministic pseudo-random number generation substrate.
//
// All stochastic pieces of the simulation (the fail/recover model of §IV,
// seeded token-choice policies, randomized test sweeps) draw from explicit
// per-component generator objects. There is no global RNG: determinism
// under a seed is a hard requirement for trace replay (sim/trace.hpp) and
// for reproducing every number in EXPERIMENTS.md.
//
// Xoshiro256** (Blackman & Vigna) seeded through SplitMix64, the standard
// construction; both are tiny, fast, and well-studied.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "util/check.hpp"

namespace cellflow {

/// SplitMix64: used to expand a 64-bit seed into xoshiro state, and usable
/// on its own for cheap decorrelated stream splitting.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the simulation's workhorse generator.
/// Satisfies UniformRandomBitGenerator, so it also composes with <random>.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds via SplitMix64 so that nearby seeds give unrelated streams.
  constexpr explicit Xoshiro256(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// The raw 53-bit draw m = (*this)() >> 11 that uniform01 scales and
  /// every Bernoulli trial here decides on.
  constexpr std::uint64_t draw53() noexcept { return (*this)() >> 11; }

  /// Uniform double in [0, 1). 53 bits of entropy per draw.
  constexpr double uniform01() noexcept {
    return static_cast<double>(draw53()) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Precondition: lo <= hi.
  constexpr double uniform(double lo, double hi) {
    CF_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform01();
  }

  /// Uniform integer in [0, n). Precondition: n > 0.
  /// Rejection sampling: unbiased for every n.
  constexpr std::uint64_t below(std::uint64_t n) {
    CF_EXPECTS(n > 0);
    const std::uint64_t limit = max() - max() % n;
    std::uint64_t draw = (*this)();
    while (draw >= limit) draw = (*this)();
    return draw % n;
  }

  /// Bernoulli trial with success probability p ∈ [0, 1].
  constexpr bool bernoulli(double p) {
    CF_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform01() < p;
  }

  /// bernoulli(p) in integer form, for a p tried on many draws: compute
  /// cut = bernoulli_cut(p) once, then succeeds(draw53(), cut) per trial.
  /// bernoulli tests m·2⁻⁵³ < p on the raw draw m = draw53(); p·2⁵³ is
  /// exact and m an integer, so that holds exactly when m < ⌈p·2⁵³⌉ — the
  /// same draw and the same decision, without the conversion to double.
  static std::uint64_t bernoulli_cut(double p) {
    CF_EXPECTS(p >= 0.0 && p <= 1.0);
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// Whether draw53() value `m` succeeds against a bernoulli_cut. Monotone
  /// in the cut: a draw that fails the larger of two cuts fails both, so a
  /// caller may take the draw first and decide which trial it serves only
  /// when it can matter.
  [[nodiscard]] static constexpr bool succeeds(std::uint64_t m,
                                               std::uint64_t cut) noexcept {
    return m < cut;
  }

  /// A decorrelated child stream, for handing to sub-components.
  constexpr Xoshiro256 split() noexcept { return Xoshiro256((*this)()); }

  /// The four xoshiro words, in the order the update rule indexes them.
  /// This IS the serialized stream format (src/snapshot writes these words
  /// verbatim, little-endian); the word order and the seed-expansion used
  /// by the constructor are pinned by golden values in tests/test_rng.cpp.
  [[nodiscard]] constexpr std::array<std::uint64_t, 4> state() const noexcept {
    return state_;
  }

  /// Overwrites the stream position with previously captured state().
  constexpr void set_state(
      const std::array<std::uint64_t, 4>& words) noexcept {
    state_ = words;
  }

  /// Rebuilds a generator mid-stream from state() words.
  [[nodiscard]] static constexpr Xoshiro256 from_state(
      const std::array<std::uint64_t, 4>& words) noexcept {
    Xoshiro256 g(0);
    g.state_ = words;
    return g;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace cellflow
