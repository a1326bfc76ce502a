// Safety and invariant predicates from the paper's analysis (§III-A),
// implemented as *independent oracles* over System states. The test suite
// evaluates these on every round of randomized executions; they are not
// used by the protocol itself (the protocol must be safe on its own).
//
//   Safe_{i,j}(x): ∀ p ≠ q ∈ Members_{i,j}. |px−qx| ≥ d ∨ |py−qy| ≥ d
//   Safe(x):       ∀ ⟨i,j⟩. Safe_{i,j}(x)                     (Theorem 5)
//   Invariant 1:   members lie within their cell: i+l/2 ≤ px ≤ i+1−l/2 (and y)
//   Invariant 2:   Members sets are pairwise disjoint
//   H(x):          a granted signal implies the entry strip is clear
//
// All real-valued comparisons accept a tolerance `eps` (default 1e-9) so
// that accumulated floating-point error in long executions cannot raise
// false alarms; the protocol's safety margins are ~1e-1, twelve orders of
// magnitude above the tolerance.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/system.hpp"

namespace cellflow {

inline constexpr double kPredicateEps = 1e-9;

/// A falsified predicate, with enough context to debug the failure.
struct Violation {
  std::string predicate;
  CellId cell;
  std::string detail;
};

/// Safe_{i,j}: pairwise center spacing ≥ d along some axis.
[[nodiscard]] bool safe_cell(const System& sys, CellId id,
                             double eps = kPredicateEps);

/// Theorem 5's Safe(x). Returns the first violation found, or nullopt.
[[nodiscard]] std::optional<Violation> check_safe(
    const System& sys, double eps = kPredicateEps);

/// Invariant 1: every member's center lies in [i+l/2, i+1−l/2]×[j+l/2, j+1−l/2].
[[nodiscard]] std::optional<Violation> check_members_in_bounds(
    const System& sys, double eps = kPredicateEps);

/// Invariant 2: no entity id appears in two cells.
[[nodiscard]] std::optional<Violation> check_members_disjoint(
    const System& sys);

/// Predicate H(x): for every cell with signal = ⟨m,n⟩, the entry strip
/// toward ⟨m,n⟩ is clear. Holds at the post-Signal point of every round
/// (Lemma 3), so callers evaluate it from a System::PhaseHook at
/// UpdatePhase::kAfterSignal — SafetyMonitor::on_phase does exactly that.
[[nodiscard]] std::optional<Violation> check_h_predicate(
    const System& sys, double eps = kPredicateEps);

/// Stronger geometric oracle, used as a cross-check of Safe: within each
/// cell, no two entities' *physical* l×l footprints may overlap, and their
/// rectangles must in fact be rs-separated along some axis.
[[nodiscard]] std::optional<Violation> check_footprints_separated(
    const System& sys, double eps = kPredicateEps);

/// Runs every oracle above; returns all violations (empty = all good).
[[nodiscard]] std::vector<Violation> check_all(const System& sys,
                                               double eps = kPredicateEps);

[[nodiscard]] std::string to_string(const Violation& v);

}  // namespace cellflow
