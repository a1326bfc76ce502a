// NEPrev as a neighbor mask (core/cell_state.hpp): one bit per lattice
// direction, numbered in ascending id order on every lattice.
//
//   * Codec: on the square, hex and 3-D lattices, for a corner, an edge
//     and an interior cell, every subset of the cell's neighbors encodes
//     to a mask that decodes to the same ids, strictly ascending; ids
//     that are not lattice neighbors have no bit.
//   * Engines: 48 seeds × 300 rounds on System (serial and parallel(4))
//     and a 2×2-chunk ChunkedSystem. At the post-Signal hook every
//     cell's decoded NEPrev equals Figure 5's definition, recomputed from
//     the live neighbors' fresh `next` and pre-Move Members.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chunk/chunked_system.hpp"
#include "core/cell_state.hpp"
#include "core/system.hpp"
#include "failure/failure_model.hpp"
#include "flow3d/grid3.hpp"
#include "grid/grid.hpp"
#include "hexflow/hex_grid.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

// --- the codec, on every lattice --------------------------------------

/// Every subset of `nbrs` (the in-lattice neighbors of `self`) round-trips
/// through the mask, ascending; off-lattice-neighbor ids get no bit.
template <typename Id>
void expect_every_subset_round_trips(Id self, std::vector<Id> nbrs,
                                     const std::string& label) {
  std::sort(nbrs.begin(), nbrs.end());
  ASSERT_LE(nbrs.size(), 8u) << label;
  for (std::uint32_t subset = 0; subset < (1u << nbrs.size()); ++subset) {
    std::vector<Id> ids;
    NeighborMask mask = 0;
    // Encode in descending order: the mask must not care.
    for (std::size_t k = nbrs.size(); k-- > 0;) {
      if ((subset >> k & 1u) == 0) continue;
      ids.push_back(nbrs[k]);
      const NeighborMask bit = neighbor_bit(self, nbrs[k]);
      ASSERT_NE(bit, 0) << label;
      ASSERT_EQ(mask & bit, 0) << label << ": two neighbors share a bit";
      mask |= bit;
    }
    std::sort(ids.begin(), ids.end());
    const auto decoded = neighbors_in(self, mask);
    const std::vector<Id> got(decoded.begin(), decoded.end());
    ASSERT_EQ(got, ids) << label << " subset " << subset;
    ASSERT_TRUE(std::adjacent_find(got.begin(), got.end(),
                                   [](Id a, Id b) { return !(a < b); }) ==
                got.end())
        << label << " subset " << subset << ": not strictly ascending";
    ASSERT_EQ(neighbor_count(mask), ids.size()) << label;
  }
  EXPECT_EQ(neighbor_bit(self, self), 0) << label;
}

TEST(NePrevMask, SquareSubsetsRoundTripAscending) {
  const Grid g(5);
  for (const CellId id : {CellId{0, 0}, CellId{0, 2}, CellId{2, 2}}) {
    expect_every_subset_round_trips(id, g.neighbors(id), to_string(id));
  }
  // Bit k is the k-th neighbor in ascending CellId order.
  const CellId c{2, 2};
  EXPECT_EQ(neighbor_bit(c, CellId{1, 2}), 0x1);
  EXPECT_EQ(neighbor_bit(c, CellId{2, 1}), 0x2);
  EXPECT_EQ(neighbor_bit(c, CellId{2, 3}), 0x4);
  EXPECT_EQ(neighbor_bit(c, CellId{3, 2}), 0x8);
  for (const CellId far : {CellId{1, 1}, CellId{3, 3}, CellId{0, 2},
                           CellId{2, 4}}) {
    EXPECT_EQ(neighbor_bit(c, far), 0) << to_string(far);
  }
}

TEST(NePrevMask, HexSubsetsRoundTripAscending) {
  const HexGrid g(5);
  for (const HexId id : {HexId{0, 0}, HexId{0, 2}, HexId{2, 2}}) {
    expect_every_subset_round_trips(id, g.neighbors(id), to_string(id));
  }
  EXPECT_EQ(neighbor_bit(HexId{2, 2}, HexId{1, 1}), 0);  // not adjacent
  EXPECT_EQ(neighbor_bit(HexId{2, 2}, HexId{3, 3}), 0);
}

TEST(NePrevMask, CubeSubsetsRoundTripAscending) {
  const Grid3 g(4, 4, 4);
  for (const CellId3 id :
       {CellId3{0, 0, 0}, CellId3{0, 1, 2}, CellId3{1, 2, 1}}) {
    expect_every_subset_round_trips(id, g.neighbors(id), to_string(id));
  }
  EXPECT_EQ(neighbor_bit(CellId3{1, 1, 1}, CellId3{2, 2, 1}), 0);
}

TEST(NePrevMask, EveryLatticeFitsOneByte) {
  EXPECT_EQ(ascending_neighbors(CellId{}).size(), 4u);
  EXPECT_EQ(ascending_neighbors(HexId{}).size(), 6u);
  EXPECT_EQ(ascending_neighbors(CellId3{}).size(), 6u);
  EXPECT_LE(sizeof(CellState), 72u);
}

// --- the engines: the stored mask is Figure 5's NEPrev ------------------

/// Checks, at the post-Signal hook, that every cell's stored NEPrev
/// decodes to {nb ∈ Nbrs : ¬failed_nb ∧ next_nb = self ∧ Members_nb ≠ ∅}
/// for a live cell and to ∅ for a failed one. Cells the engine does not
/// hold (a ChunkedSystem's parked and virgin chunks) read as the rest
/// state: no members, no NEPrev.
template <class Engine>
void expect_masks_match_figure5(const Engine& sys, const std::string& label) {
  const Grid& g = sys.grid();
  std::vector<const CellState*> at(g.cell_count(), nullptr);
  sys.for_each_cell(
      [&](CellId id, const CellState& c) { at[g.index_of(id)] = &c; });
  for (const CellId id : g.all_cells()) {
    const CellState* c = at[g.index_of(id)];
    std::vector<CellId> want;
    if (c == nullptr || !c->failed) {
      for (const CellId nb : g.neighbors(id)) {
        const CellState* n = at[g.index_of(nb)];
        if (n != nullptr && !n->failed && n->next == OptCellId{id} &&
            n->has_entities())
          want.push_back(nb);
      }
    }
    std::sort(want.begin(), want.end());
    const NeighborMask mask = c == nullptr ? NeighborMask{0} : c->ne_prev;
    const auto decoded = neighbors_in(id, mask);
    ASSERT_EQ(std::vector<CellId>(decoded.begin(), decoded.end()), want)
        << label << " " << to_string(id);
  }
}

SystemConfig mask_config(std::uint64_t seed) {
  Xoshiro256 rng(seed * 104729 + 7);
  const auto u = [&rng](int n) {
    return static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
  };
  SystemConfig cfg;
  cfg.side = 36;  // 2×2 chunks of 32×32 on the chunked store
  cfg.params = Params(0.25, 0.05, 0.1);
  cfg.target = CellId{u(cfg.side), u(cfg.side)};
  while (cfg.sources.size() < 4) {
    const CellId c{u(cfg.side), u(cfg.side)};
    if (c != cfg.target &&
        std::find(cfg.sources.begin(), cfg.sources.end(), c) ==
            cfg.sources.end())
      cfg.sources.push_back(c);
  }
  cfg.movement_rule =
      seed % 2 == 0 ? MovementRule::kCoupled : MovementRule::kCompacting;
  return cfg;
}

template <class Engine>
void run_and_check(Engine& sys, std::uint64_t seed, const std::string& label) {
  std::uint64_t checks = 0;
  std::uint64_t nonempty = 0;
  sys.set_phase_hook([&](const Engine& e, UpdatePhase phase) {
    if (phase != UpdatePhase::kAfterSignal) return;
    expect_masks_match_figure5(e, label);
    ++checks;
    e.for_each_cell([&](CellId, const CellState& c) {
      if (c.ne_prev != 0) ++nonempty;
    });
  });
  BasicRandomFailRecover<Engine> failures(0.002, 0.1, seed ^ 0x5EEDu, true);
  for (int round = 0; round < 300; ++round) {
    failures.apply(sys);
    sys.update();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(checks, 300u) << label;
  EXPECT_GT(nonempty, 0u) << label << ": no cell ever had a predecessor";
}

class NePrevMaskEngines : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NePrevMaskEngines, StoredMaskIsFigure5NePrev) {
  const std::uint64_t seed = GetParam();
  const SystemConfig cfg = mask_config(seed);
  {
    System serial(cfg);
    serial.set_parallel_policy(ParallelPolicy::serial());
    run_and_check(serial, seed, "System serial");
  }
  {
    System pooled(cfg);
    pooled.set_parallel_policy(ParallelPolicy::parallel(4));
    run_and_check(pooled, seed, "System parallel(4)");
  }
  {
    chunk::ChunkedSystem chunked(cfg);
    chunked.set_parallel_policy(ParallelPolicy::serial());
    ASSERT_EQ(chunked.store().chunk_count(), 4u);
    run_and_check(chunked, seed, "ChunkedSystem");
  }
}

std::vector<std::uint64_t> seeds() {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = 1; s <= 48; ++s) out.push_back(s);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NePrevMaskEngines, ::testing::ValuesIn(seeds()));

}  // namespace
}  // namespace cellflow
