// Unit tests for the chunk geometry (ChunkLayout) and the sparse cell
// store (ChunkedCellStore) in isolation — DESIGN.md §12. The engine-level
// behavior (quiescence proofs, parking decisions, phase-loop parity) is
// covered by test_chunk_system.cpp and test_chunk_differential.cpp; here
// we pin the storage layer's own contracts: geometry round-trips, the
// three-state lifecycle, lossless park/unpark, the immutable boundary
// summary, and the encodability guard.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chunk/chunked_store.hpp"
#include "obs/alloc_stats.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace cellflow::chunk {
namespace {

TEST(ChunkLayout, GeometryRoundTripsOnEverySide) {
  for (const int side : {1, 5, 31, 32, 33, 64, 100}) {
    const ChunkLayout layout(side);
    ASSERT_EQ(layout.chunks_x(), (side + kChunkSide - 1) / kChunkSide);

    std::size_t covered = 0;
    for (std::size_t q = 0; q < layout.chunk_count(); ++q) {
      covered += layout.cells_in(q);
    }
    ASSERT_EQ(covered, static_cast<std::size_t>(side) *
                           static_cast<std::size_t>(side))
        << "side " << side;

    for (int j = 0; j < side; ++j) {
      for (int i = 0; i < side; ++i) {
        const CellId id{i, j};
        const std::size_t q = layout.chunk_of(id);
        const ChunkLayout::Rect r = layout.rect_of(q);
        ASSERT_TRUE(id.i >= r.i0 && id.i < r.i0 + r.w);
        ASSERT_TRUE(id.j >= r.j0 && id.j < r.j0 + r.h);
        ASSERT_EQ(layout.cell_at(q, layout.slot_of(id)), id)
            << "side " << side << " cell " << to_string(id);
      }
    }
  }
}

TEST(ChunkLayout, EdgeChunksAreClipped) {
  const ChunkLayout layout(100);  // 4×4 chunks, last row/column 4 cells
  ASSERT_EQ(layout.chunks_x(), 4);
  ASSERT_EQ(layout.chunk_count(), 16u);
  const ChunkLayout::Rect interior = layout.rect_of(0);
  EXPECT_EQ(interior.w, kChunkSide);
  EXPECT_EQ(interior.h, kChunkSide);
  const ChunkLayout::Rect corner = layout.rect_of(15);
  EXPECT_EQ(corner.i0, 96);
  EXPECT_EQ(corner.j0, 96);
  EXPECT_EQ(corner.w, 4);
  EXPECT_EQ(corner.h, 4);
  EXPECT_EQ(layout.cells_in(15), 16u);
}

TEST(ChunkStore, StartsFullyVirgin) {
  const CellId target{50, 50};
  ChunkedCellStore store(100, target);
  EXPECT_EQ(store.live_count(), 0u);
  EXPECT_EQ(store.parked_count(), 0u);
  EXPECT_EQ(store.chunk_count(), 16u);
  for (std::size_t q = 0; q < store.chunk_count(); ++q) {
    EXPECT_EQ(store.state(q), ChunkedCellStore::State::kVirgin);
  }
  // Boundary reads and rest-state reconstruction need no materialization.
  EXPECT_TRUE(store.boundary_dist(CellId{0, 0}).is_infinite());
  EXPECT_EQ(store.boundary_dist(target), Dist::zero());
  const ChunkLayout& layout = store.layout();
  const CellState rest =
      store.rest_cell(layout.chunk_of(target), layout.slot_of(target));
  EXPECT_EQ(rest.dist, Dist::zero());
  EXPECT_FALSE(rest.failed);
  EXPECT_TRUE(rest.members.empty());
  EXPECT_EQ(store.live_count(), 0u) << "const reads must not materialize";
}

TEST(ChunkStore, EnsureLiveMaterializesInitialState) {
  const CellId target{50, 50};
  ChunkedCellStore store(100, target);
  const std::size_t q = store.layout().chunk_of(target);
  LiveChunk& lc = store.ensure_live(q);
  ASSERT_EQ(lc.cells.size(), store.layout().cells_in(q));
  EXPECT_EQ(store.live_count(), 1u);
  EXPECT_EQ(store.stats().materialized_total, 1u);
  for (std::size_t slot = 0; slot < lc.cells.size(); ++slot) {
    const CellState& c = lc.cells[slot];
    const bool is_target = store.layout().cell_at(q, slot) == target;
    EXPECT_EQ(c.dist, is_target ? Dist::zero() : Dist::infinity());
    EXPECT_FALSE(c.next.has_value());
    EXPECT_FALSE(c.failed);
    EXPECT_TRUE(c.members.empty());
  }
  // Idempotent.
  store.ensure_live(q);
  EXPECT_EQ(store.stats().materialized_total, 1u);
  EXPECT_EQ(store.live_count(), 1u);
}

TEST(ChunkStore, ParkUnparkRoundTripsState) {
  const CellId target{90, 90};
  ChunkedCellStore store(100, target);
  const std::size_t q = 0;  // far from the target chunk
  LiveChunk& lc = store.ensure_live(q);

  // A representative stabilized corner of the world: finite dists, next
  // pointers toward the target, a few failed cells.
  const ChunkLayout& layout = store.layout();
  for (std::size_t slot = 0; slot < lc.cells.size(); ++slot) {
    const CellId id = layout.cell_at(q, slot);
    CellState& c = lc.cells[slot];
    c.dist = Dist::finite(
        static_cast<std::uint64_t>(layout.side() * 2 - id.i - id.j));
    if (id.i + 1 < kChunkSide) c.next = CellId{id.i + 1, id.j};
    if ((id.i + id.j) % 7 == 0) {
      c.failed = true;
      c.dist = Dist::infinity();
      c.next.reset();
    }
  }
  const std::vector<CellState> before = lc.cells;

  ASSERT_TRUE(store.parkable(q));
  store.park(q);
  EXPECT_EQ(store.state(q), ChunkedCellStore::State::kParked);
  EXPECT_EQ(store.live_count(), 0u);
  EXPECT_EQ(store.parked_count(), 1u);
  EXPECT_EQ(store.stats().parked_total, 1u);

  // The summary answers boundary reads and rest-state queries exactly.
  for (std::size_t slot = 0; slot < before.size(); ++slot) {
    const CellId id = layout.cell_at(q, slot);
    EXPECT_EQ(store.boundary_dist(id), before[slot].dist) << to_string(id);
    const CellState rest = store.rest_cell(q, slot);
    EXPECT_EQ(rest.dist, before[slot].dist) << to_string(id);
    EXPECT_EQ(rest.next, before[slot].next) << to_string(id);
    EXPECT_EQ(rest.failed, before[slot].failed) << to_string(id);
    EXPECT_TRUE(rest.members.empty());
    EXPECT_FALSE(rest.token.has_value());
    EXPECT_FALSE(rest.signal.has_value());
    EXPECT_EQ(rest.ne_prev, 0);
  }
  // The summary is an order of magnitude smaller than the live cells
  // alone (5 bytes/cell vs sizeof(CellState) plus aux arrays).
  EXPECT_LT(store.parked(q).resident_bytes() * 4,
            before.size() * sizeof(CellState));

  // Unpark: every protocol variable comes back bit-identically.
  LiveChunk& back = store.ensure_live(q);
  EXPECT_EQ(store.stats().unparked_total, 1u);
  ASSERT_EQ(back.cells.size(), before.size());
  for (std::size_t slot = 0; slot < before.size(); ++slot) {
    EXPECT_EQ(back.cells[slot].dist, before[slot].dist);
    EXPECT_EQ(back.cells[slot].next, before[slot].next);
    EXPECT_EQ(back.cells[slot].failed, before[slot].failed);
    EXPECT_EQ(back.dist_snapshot[slot], before[slot].dist)
        << "unpark must re-sync the route snapshot";
  }
}

TEST(ChunkStore, ParkableRefusesUnencodableState) {
  ChunkedCellStore store(100, CellId{90, 90});
  store.ensure_live(0);
  ASSERT_TRUE(store.parkable(0));

  // Adversarially corrupted finite dist beyond the u32 summary encoding.
  store.live(0).cells[5].dist = Dist::finite(0x1'0000'0000ULL);
  EXPECT_FALSE(store.parkable(0));
  store.live(0).cells[5].dist = Dist::finite(0xFFFFFFFEULL);
  EXPECT_TRUE(store.parkable(0));
  store.live(0).cells[5].dist = Dist::finite(3);

  // A next pointer that is not a lattice neighbor.
  store.live(0).cells[7].next = CellId{20, 20};
  EXPECT_FALSE(store.parkable(0));
  store.live(0).cells[7].next = CellId{8, 0};  // east neighbor of slot 7
  EXPECT_TRUE(store.parkable(0));
}

TEST(ChunkStore, ResidentBytesShrinkPastTheFreelist) {
  // Parking more chunks than the freelist retains must actually release
  // memory — this is the mechanism behind bench/macro_huge_grid's
  // "memory ∝ active chunks" claim.
  ChunkedCellStore store(160, CellId{150, 150});  // 5×5 chunks
  for (std::size_t q = 0; q < 12; ++q) store.ensure_live(q);
  const std::uint64_t all_live = store.resident_bytes();
  for (std::size_t q = 0; q < 12; ++q) {
    ASSERT_TRUE(store.parkable(q));
    store.park(q);
  }
  EXPECT_EQ(store.live_count(), 0u);
  EXPECT_EQ(store.parked_count(), 12u);
  EXPECT_LT(store.resident_bytes(), all_live);
}

TEST(ChunkStore, StatsSampleMirrorsTheStore) {
  ChunkedCellStore store(160, CellId{150, 150});  // 5×5 chunks
  store.ensure_live(0);
  store.ensure_live(1);
  store.park(0);
  const obs::StoreStatsSample s = store.stats_sample();
  EXPECT_EQ(s.resident_bytes, store.resident_bytes());
  EXPECT_EQ(s.live_chunks, 1u);
  EXPECT_EQ(s.parked_chunks, 1u);
  EXPECT_EQ(s.virgin_chunks, 23u);
  EXPECT_EQ(s.materialized_total, 2u);
  EXPECT_EQ(s.parked_total, 1u);
  EXPECT_EQ(s.unparked_total, 0u);
}

TEST(ChunkStore, PublisherExportsGaugesAndDeltaCounters) {
  ChunkedCellStore store(160, CellId{150, 150});
  obs::MetricsRegistry reg;
  obs::StoreStatsPublisher pub(reg);

  store.ensure_live(0);
  store.ensure_live(1);
  pub.publish(store.stats_sample());
  store.park(0);
  store.ensure_live(0);  // unpark
  // Publishing again must feed the monotone totals as deltas, not
  // re-add the lifetime figures.
  pub.publish(store.stats_sample());

  const std::string text = obs::to_prometheus(reg);
  EXPECT_NE(text.find("cellflow_chunk_materialized_total 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cellflow_chunk_parked_total 1"), std::string::npos);
  EXPECT_NE(text.find("cellflow_chunk_unparked_total 1"), std::string::npos);
  EXPECT_NE(text.find("cellflow_store_chunks{state=\"live\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("cellflow_store_chunks{state=\"parked\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("cellflow_store_chunks{state=\"virgin\"} 23"),
            std::string::npos);
  EXPECT_NE(text.find("cellflow_store_resident_bytes"), std::string::npos);
  EXPECT_NE(text.find("cellflow_resident_bytes_peak"), std::string::npos);
}

TEST(ChunkStore, ProcessMemoryReadsProcfsOrReportsZero) {
  const obs::ProcessMemory mem = obs::process_memory();
  // On Linux both figures are real and the high-water mark dominates the
  // current RSS; elsewhere the reader degrades to zeros, never garbage.
  if (mem.vm_hwm_bytes != 0) {
    EXPECT_GE(mem.vm_hwm_bytes, mem.vm_rss_bytes);
    EXPECT_GT(mem.vm_rss_bytes, 0u);
  } else {
    EXPECT_EQ(mem.vm_rss_bytes + mem.vm_hwm_bytes, 0u);
  }
}

TEST(ChunkStore, LiveOrderIsAscending) {
  ChunkedCellStore store(160, CellId{0, 0});
  for (const std::size_t q : {7u, 2u, 11u, 0u, 5u}) store.ensure_live(q);
  const std::vector<std::uint32_t>& order = store.live_order();
  const std::vector<std::uint32_t> expect{0, 2, 5, 7, 11};
  EXPECT_EQ(order, expect);
  store.park(7);
  const std::vector<std::uint32_t> after{0, 2, 5, 11};
  EXPECT_EQ(store.live_order(), after);
}

}  // namespace
}  // namespace cellflow::chunk
