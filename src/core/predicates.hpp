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
//
// Each oracle is written once (predicates.cpp), over the engine's
// for_each_cell visitor, and evaluated on all three engines: the System
// forms below are the reference the tests pin, and check_all /
// check_h_predicate also take a chunk::ChunkedSystem (live chunks only —
// parked and virgin cells provably hold neither members nor a signal) and
// a MessageSystem (its processes' cells; msg/msg_audit.hpp adds the
// in-flight batches and conservation). Every Simulator evaluates H at the
// kAfterSignal hook of each round, whichever engine it drives.
//
// The four round-end predicates — Safe, Invariants 1–2 and footprint
// separation — share one sweep: a single for_each_cell pass that skips
// empty cells (all four involve only Members_{i,j}; Theorem 5's proof is
// per cell) and evaluates each on every occupied cell, keeping each one's
// first violation in visiting order. check_all returns the four results;
// check_safe, check_members_in_bounds, check_members_disjoint and
// check_footprints_separated each run the sweep and return their own.
// Invariant 2 marks ids in a flat table reused across sweeps, so a clean
// sweep allocates nothing. H is a separate pass: it holds at another
// phase point.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/system.hpp"

namespace cellflow {

class MessageSystem;
namespace chunk {
class ChunkedSystem;
}  // namespace chunk

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

/// Runs every oracle above except H (a mid-round predicate) in one sweep;
/// returns all violations, in the order above (empty = all good).
[[nodiscard]] std::vector<Violation> check_all(const System& sys,
                                               double eps = kPredicateEps);

/// The same oracles over the other two engines, from the same bodies.
[[nodiscard]] std::vector<Violation> check_all(
    const chunk::ChunkedSystem& sys, double eps = kPredicateEps);
[[nodiscard]] std::vector<Violation> check_all(const MessageSystem& msg,
                                               double eps = kPredicateEps);
[[nodiscard]] std::optional<Violation> check_h_predicate(
    const chunk::ChunkedSystem& sys, double eps = kPredicateEps);
[[nodiscard]] std::optional<Violation> check_h_predicate(
    const MessageSystem& msg, double eps = kPredicateEps);

[[nodiscard]] std::string to_string(const Violation& v);

}  // namespace cellflow
