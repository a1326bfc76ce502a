// The message realization's audit (DESIGN.md §8): the shared §III-A
// oracles of src/core/predicates.hpp over the processes' cells, plus the
// two checks only the unreliable-network data plane needs:
//
//   In-flight:      Invariant 2 continued over the not-yet-accepted
//                   in-flight batches — no entity id sits both in a cell
//                   and in flight, or in two batches
//   Conservation:   injected = in cells + in flight + consumed, exactly
//
// H is checked too: every Simulator evaluates check_h_predicate at the
// MessageSystem's kAfterSignal hook (after the grant exchange), as it does
// on the shared-variable engines.
//
// These are evaluated every round of the fault-schedule property tests
// (tests/test_net_faults.cpp): under ANY drop/delay/duplication/
// partition schedule, every one of them must hold.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/predicates.hpp"  // Violation, kPredicateEps
#include "msg/msg_system.hpp"

namespace cellflow::msg_audit {

/// Invariant 2 over the in-flight set (`msg.in_flight_entities()`): every
/// in-flight id must be absent from the cells and from every other
/// batch — a duplicated or double-accepted transfer trips this. The
/// cells among themselves are the shared Invariant 2's (check_all).
[[nodiscard]] std::optional<Violation> check_in_flight_disjoint(
    const MessageSystem& msg, std::span<const Entity> in_flight);

/// The data plane's ledger: every injected entity is in some cell, in
/// flight (retained by a sender, unaccepted), or consumed at the target.
/// Loss shows up as injected > accounted; duplication as the reverse.
/// `in_flight` is `msg.in_flight_entities().size()`.
[[nodiscard]] std::optional<Violation> check_conservation(
    const MessageSystem& msg, std::uint64_t in_flight);

/// cellflow::check_all(msg), then the two checks above; returns all
/// violations (empty = all good). The O(grid) in-flight snapshot is
/// assembled once for both.
[[nodiscard]] std::vector<Violation> check_all(const MessageSystem& msg,
                                               double eps = kPredicateEps);

}  // namespace cellflow::msg_audit
