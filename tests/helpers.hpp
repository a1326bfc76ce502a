// Shared helpers for the cellflow test suite.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/choose.hpp"
#include "core/source.hpp"
#include "core/system.hpp"
#include "grid/path.hpp"

namespace cellflow::testing {

/// A small System on an N×N grid with source bottom-of-column-1 and target
/// top-of-column-1 (the Figure 7 geometry scaled to `side`).
inline System make_column_system(int side, Params params,
                                 std::unique_ptr<ChoosePolicy> choose = nullptr,
                                 std::unique_ptr<SourcePolicy> source = nullptr) {
  SystemConfig cfg;
  cfg.side = side;
  cfg.params = params;
  cfg.sources = {CellId{1, 0}};
  cfg.target = CellId{1, side - 1};
  return System(std::move(cfg), std::move(choose), std::move(source));
}

/// A System with no sources at all (entities only via seed_entity).
inline System make_closed_system(int side, Params params, CellId target,
                                 std::unique_ptr<ChoosePolicy> choose = nullptr) {
  SystemConfig cfg;
  cfg.side = side;
  cfg.params = params;
  cfg.sources = {};
  cfg.target = target;
  return System(std::move(cfg), std::move(choose),
                std::make_unique<NullSource>());
}

/// Runs `rounds` updates.
inline void run_rounds(System& sys, std::uint64_t rounds) {
  for (std::uint64_t k = 0; k < rounds; ++k) sys.update();
}

/// Runs updates until routing has stabilized (dist finite on every
/// target-connected cell and equal to the BFS reference) or max rounds.
inline bool run_until_routed(System& sys, std::uint64_t max_rounds) {
  for (std::uint64_t k = 0; k < max_rounds; ++k) {
    sys.update();
    const auto rho = sys.reference_distances();
    bool ok = true;
    for (const CellId id : sys.grid().all_cells()) {
      const Dist expect = rho[sys.grid().index_of(id)];
      if (expect.is_finite() && sys.cell(id).dist != expect) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

/// Per-round event-stream equality (the canonicalized order contract).
inline void expect_same_events(const RoundEvents& a, const RoundEvents& b,
                               int round) {
  ASSERT_EQ(a.round, b.round) << "round " << round;
  ASSERT_EQ(a.moved, b.moved) << "round " << round;
  ASSERT_EQ(a.blocked, b.blocked) << "round " << round;
  ASSERT_EQ(a.injected, b.injected) << "round " << round;
  ASSERT_EQ(a.arrivals, b.arrivals) << "round " << round;
  ASSERT_EQ(a.transfers.size(), b.transfers.size()) << "round " << round;
  for (std::size_t k = 0; k < a.transfers.size(); ++k) {
    ASSERT_EQ(a.transfers[k].entity, b.transfers[k].entity)
        << "round " << round << " transfer " << k;
    ASSERT_EQ(a.transfers[k].from, b.transfers[k].from)
        << "round " << round << " transfer " << k;
    ASSERT_EQ(a.transfers[k].to, b.transfers[k].to)
        << "round " << round << " transfer " << k;
    ASSERT_EQ(a.transfers[k].consumed, b.transfers[k].consumed)
        << "round " << round << " transfer " << k;
  }
}

}  // namespace cellflow::testing
