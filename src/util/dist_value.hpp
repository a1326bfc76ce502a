// N∞: the naturals extended with ∞, as used for the paper's `dist`
// variable (Figure 3: dist ∈ N∞, initially ∞; fail sets dist := ∞).
//
// Route (Figure 4) computes `min over neighbors of dist, plus one`.
// Arithmetic must saturate: ∞ + 1 = ∞. A plain integer with a sentinel is
// error-prone (UINT64_MAX + 1 wraps), so we wrap it in a small value type
// with only the operations the protocol needs.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>

#include "util/check.hpp"

namespace cellflow {

/// A hop-count distance in N ∪ {∞}. Totally ordered with ∞ as maximum.
class Dist {
 public:
  /// Default-constructed distance is ∞ (the paper's initial value).
  constexpr Dist() noexcept = default;

  /// A finite distance. Precondition: hops < infinity sentinel.
  static constexpr Dist finite(std::uint64_t hops) {
    CF_EXPECTS_MSG(hops < kInfinity, "finite distance out of range");
    return Dist{hops};
  }

  static constexpr Dist zero() noexcept { return Dist{0}; }
  static constexpr Dist infinity() noexcept { return Dist{kInfinity}; }

  [[nodiscard]] constexpr bool is_infinite() const noexcept {
    return raw_ == kInfinity;
  }
  [[nodiscard]] constexpr bool is_finite() const noexcept {
    return raw_ != kInfinity;
  }

  /// Number of hops. Precondition: finite.
  [[nodiscard]] constexpr std::uint64_t hops() const {
    CF_EXPECTS_MSG(is_finite(), "hops() on infinite distance");
    return raw_;
  }

  /// Saturating successor: ∞ + 1 = ∞. This is the only arithmetic Route
  /// ever performs on distances.
  [[nodiscard]] constexpr Dist plus_one() const noexcept {
    return is_infinite() ? infinity() : Dist{raw_ + 1};
  }

  friend constexpr auto operator<=>(Dist a, Dist b) noexcept {
    return a.raw_ <=> b.raw_;
  }
  friend constexpr bool operator==(Dist, Dist) noexcept = default;

 private:
  static constexpr std::uint64_t kInfinity =
      std::numeric_limits<std::uint64_t>::max();

  constexpr explicit Dist(std::uint64_t raw) noexcept : raw_(raw) {}

  std::uint64_t raw_ = kInfinity;
};

inline std::string to_string(Dist d) {
  return d.is_infinite() ? std::string("inf") : std::to_string(d.hops());
}

std::ostream& operator<<(std::ostream& os, Dist d);

}  // namespace cellflow
