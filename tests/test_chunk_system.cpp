// Engine-level tests for ChunkedSystem (DESIGN.md §12): observational
// parity with the dense System stepped in lockstep (same config, same
// seeds, same external transitions), the quiescence-driven park
// lifecycle (hysteresis, pinning, fault-in on every external mutation,
// none on a no-op recover), the one scheduler, and the stateful-choose
// serial pin. The broad randomized sweep across engines and realizations
// lives in test_chunk_differential.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "chunk/chunked_system.hpp"
#include "core/choose.hpp"
#include "core/source.hpp"
#include "core/system.hpp"
#include "helpers.hpp"
#include "snapshot/snapshot.hpp"
#include "util/check.hpp"

namespace cellflow {
namespace {

SystemConfig column_config(int side) {
  SystemConfig cfg;
  cfg.side = side;
  cfg.params = Params(0.25, 0.05, 0.1);
  cfg.sources = {CellId{1, 0}};
  cfg.target = CellId{1, side - 1};
  return cfg;
}

SystemConfig closed_config(int side, CellId target) {
  SystemConfig cfg;
  cfg.side = side;
  cfg.params = Params(0.25, 0.05, 0.1);
  cfg.sources = {};
  cfg.target = target;
  return cfg;
}

chunk::ChunkedSystem make_closed_chunked(int side, CellId target) {
  return chunk::ChunkedSystem(closed_config(side, target), nullptr,
                              std::make_unique<NullSource>());
}

System make_closed_dense(int side, CellId target) {
  return System(closed_config(side, target), nullptr,
                std::make_unique<NullSource>());
}

/// Full per-cell state equality, dense vs chunked, with localization.
void expect_same_state(const System& dense, const chunk::ChunkedSystem& ck,
                       int round) {
  ASSERT_EQ(dense.round(), ck.round()) << "round " << round;
  ASSERT_EQ(dense.total_arrivals(), ck.total_arrivals()) << "round " << round;
  ASSERT_EQ(dense.total_injected(), ck.total_injected()) << "round " << round;
  for (const CellId id : dense.grid().all_cells()) {
    const CellState& a = dense.cell(id);
    const CellState b = ck.cell(id);
    ASSERT_EQ(a.failed, b.failed) << to_string(id) << " round " << round;
    ASSERT_EQ(a.dist, b.dist) << to_string(id) << " round " << round;
    ASSERT_EQ(a.next, b.next) << to_string(id) << " round " << round;
    ASSERT_EQ(a.token, b.token) << to_string(id) << " round " << round;
    ASSERT_EQ(a.signal, b.signal) << to_string(id) << " round " << round;
    ASSERT_EQ(a.ne_prev, b.ne_prev)
        << to_string(id) << " round " << round;
    ASSERT_EQ(a.members, b.members) << to_string(id) << " round " << round;
  }
}

TEST(ChunkSystem, MatchesDenseOnSingleChunkGrid) {
  // Side 6 fits one chunk: pins the engine mechanics (phases, events,
  // counters) without any cross-chunk machinery in play.
  System dense(column_config(6));
  dense.set_parallel_policy(ParallelPolicy::serial());
  chunk::ChunkedSystem ck(column_config(6));
  ck.set_parallel_policy(ParallelPolicy::serial());
  for (int r = 0; r < 300; ++r) {
    dense.update();
    ck.update();
    expect_same_state(dense, ck, r);
    testing::expect_same_events(dense.last_events(), ck.last_events(), r);
  }
}

TEST(ChunkSystem, MatchesDenseAcrossChunkBorders) {
  // Side 40 = 2×2 chunks; the column-1 flow crosses the j=31/32 chunk
  // border every round, exercising boundary dist reads, cross-chunk
  // transfers, and cross-chunk NEPrev/token/signal references.
  System dense(column_config(40));
  dense.set_parallel_policy(ParallelPolicy::serial());
  chunk::ChunkedSystem ck(column_config(40));
  ck.set_parallel_policy(ParallelPolicy::serial());
  for (int r = 0; r < 200; ++r) {
    dense.update();
    ck.update();
    ASSERT_EQ(snapshot::state_digest(dense), snapshot::state_digest(ck))
        << "round " << r;
    testing::expect_same_events(dense.last_events(), ck.last_events(), r);
    if (r % 25 == 0) expect_same_state(dense, ck, r);
  }
}

TEST(ChunkSystem, ParksQuiescentChunksAndStaysBitIdentical) {
  // Closed world, 3×3 chunks, target in the center chunk. Once the
  // routing wave has stabilized and nothing moves, every unpinned chunk
  // must park; the dense twin proves the observable state never drifts.
  const CellId target{48, 48};
  System dense = make_closed_dense(96, target);
  chunk::ChunkedSystem ck = make_closed_chunked(96, target);
  for (int r = 0; r < 130; ++r) {
    dense.update();
    ck.update();
  }
  EXPECT_EQ(ck.store().parked_count(), ck.store().chunk_count() - 1)
      << "everything but the pinned target chunk parks";
  EXPECT_EQ(ck.store().live_count(), 1u);
  EXPECT_GT(ck.store().stats().parked_total, 0u);
  expect_same_state(dense, ck, 130);
  EXPECT_EQ(snapshot::state_digest(dense), snapshot::state_digest(ck));
}

TEST(ChunkSystem, FailIntoParkedRegionFaultsChunkBackIn) {
  const CellId target{48, 48};
  System dense = make_closed_dense(96, target);
  chunk::ChunkedSystem ck = make_closed_chunked(96, target);
  for (int r = 0; r < 130; ++r) {
    dense.update();
    ck.update();
  }
  const CellId victim{5, 5};  // deep inside a parked corner chunk
  ASSERT_EQ(ck.store().state(ck.store().layout().chunk_of(victim)),
            chunk::ChunkedCellStore::State::kParked);

  dense.fail(victim);
  ck.fail(victim);
  EXPECT_TRUE(ck.store().is_live(ck.store().layout().chunk_of(victim)));
  for (int r = 0; r < 60; ++r) {
    dense.update();
    ck.update();
    ASSERT_EQ(snapshot::state_digest(dense), snapshot::state_digest(ck))
        << "round " << r << " after fail";
  }
  dense.recover(victim);
  ck.recover(victim);
  for (int r = 0; r < 60; ++r) {
    dense.update();
    ck.update();
    ASSERT_EQ(snapshot::state_digest(dense), snapshot::state_digest(ck))
        << "round " << r << " after recover";
  }
  expect_same_state(dense, ck, 250);
}

TEST(ChunkSystem, CorruptionInParkedRegionIsRepairedIdentically) {
  // corrupt_control_state targeting a parked chunk must fault it in with
  // the exact summarized state, apply the corruption, and re-arm — the
  // self-stabilization transcript must match the dense engine's.
  const CellId target{48, 48};
  System dense = make_closed_dense(96, target);
  chunk::ChunkedSystem ck = make_closed_chunked(96, target);
  for (int r = 0; r < 130; ++r) {
    dense.update();
    ck.update();
  }
  const CellId victim{90, 5};
  ASSERT_FALSE(ck.store().is_live(ck.store().layout().chunk_of(victim)));

  // A lying dist (too small) plus a bogus next pointer: Route must
  // propagate the repair outward over several rounds.
  dense.corrupt_control_state(victim, Dist::finite(1), CellId{90, 6},
                              std::nullopt, std::nullopt);
  ck.corrupt_control_state(victim, Dist::finite(1), CellId{90, 6},
                           std::nullopt, std::nullopt);
  EXPECT_TRUE(ck.store().is_live(ck.store().layout().chunk_of(victim)));
  // The lying low dist spreads before the repair wave counts it back up
  // (§III-B self-stabilization), so give the repair O(diameter) rounds.
  for (int r = 0; r < 280; ++r) {
    dense.update();
    ck.update();
    ASSERT_EQ(snapshot::state_digest(dense), snapshot::state_digest(ck))
        << "round " << r << " after corruption";
  }
  // Repaired and re-quiescent: the perturbed chunk parks again.
  EXPECT_EQ(ck.store().parked_count(), ck.store().chunk_count() - 1);
}

TEST(ChunkSystem, ReparkWaitsOutTheHysteresis) {
  const CellId target{48, 48};
  chunk::ChunkedSystem ck = make_closed_chunked(96, target);
  for (int r = 0; r < 130; ++r) ck.update();
  ASSERT_EQ(ck.store().parked_count(), ck.store().chunk_count() - 1);

  // Perturb a parked corner; it must stay live for at least
  // kParkHysteresis rounds after re-quiescing, then park again.
  const CellId victim{5, 90};
  ck.fail(victim);
  ck.recover(victim);
  const std::size_t q = ck.store().layout().chunk_of(victim);
  ASSERT_TRUE(ck.store().is_live(q));
  int rounds_live = 0;
  while (ck.store().is_live(q)) {
    ck.update();
    ++rounds_live;
    ASSERT_LE(rounds_live, 200) << "perturbed chunk never re-parked";
  }
  EXPECT_GE(rounds_live, static_cast<int>(chunk::kParkHysteresis));
}

TEST(ChunkSystem, RunsOnlyTheActiveSetScheduler) {
  // Visiting every cell would materialize every chunk; System's
  // always-visit scheduler is the reference both stores are pinned to.
  chunk::ChunkedSystem ck(column_config(40));
  ck.set_round_scheduler(RoundScheduler::kActiveSet);
  EXPECT_EQ(ck.round_scheduler(), RoundScheduler::kActiveSet);
  EXPECT_THROW(ck.set_round_scheduler(RoundScheduler::kExhaustive),
               ContractViolation);
  EXPECT_EQ(ck.round_scheduler(), RoundScheduler::kActiveSet);
}

TEST(ChunkSystem, RecoverOfALiveCellMaterializesNothing) {
  // recover() reads the failed flag without building the cell, so
  // recovering a healthy cell of a virgin or a parked chunk leaves the
  // store and the protocol state as they were.
  using State = chunk::ChunkedCellStore::State;
  const auto expect_untouched = [](chunk::ChunkedSystem& ck, CellId id) {
    const chunk::ChunkedCellStore& store = ck.store();
    const std::size_t live = store.live_count();
    const chunk::ChunkedCellStore::Stats before = store.stats();
    const std::uint64_t digest = snapshot::state_digest(ck);
    ck.recover(id);
    EXPECT_EQ(store.live_count(), live) << to_string(id);
    EXPECT_EQ(store.stats().materialized_total, before.materialized_total)
        << to_string(id);
    EXPECT_EQ(store.stats().unparked_total, before.unparked_total)
        << to_string(id);
    EXPECT_EQ(snapshot::state_digest(ck), digest) << to_string(id);
  };

  chunk::ChunkedSystem fresh(column_config(256));
  const CellId virgin{200, 200};
  ASSERT_EQ(fresh.store().state(fresh.store().layout().chunk_of(virgin)),
            State::kVirgin);
  expect_untouched(fresh, virgin);

  chunk::ChunkedSystem ck = make_closed_chunked(96, CellId{48, 48});
  for (int r = 0; r < 130; ++r) ck.update();
  const CellId parked{5, 5};
  ASSERT_EQ(ck.store().state(ck.store().layout().chunk_of(parked)),
            State::kParked);
  expect_untouched(ck, parked);
}

TEST(ChunkSystem, ParallelEngineMatchesSerialBitIdentically) {
  // The chunk is the shard unit; every thread count must reproduce the
  // serial transcript exactly (CLAUDE.md parallel-engine invariant).
  chunk::ChunkedSystem serial(column_config(40));
  serial.set_parallel_policy(ParallelPolicy::serial());
  chunk::ChunkedSystem par2(column_config(40));
  par2.set_parallel_policy(ParallelPolicy::parallel(2));
  chunk::ChunkedSystem par7(column_config(40));
  par7.set_parallel_policy(ParallelPolicy::parallel(7));
  for (int r = 0; r < 150; ++r) {
    serial.update();
    par2.update();
    par7.update();
    const std::uint64_t want = snapshot::state_digest(serial);
    ASSERT_EQ(want, snapshot::state_digest(par2)) << "round " << r;
    ASSERT_EQ(want, snapshot::state_digest(par7)) << "round " << r;
    testing::expect_same_events(serial.last_events(), par2.last_events(), r);
    testing::expect_same_events(serial.last_events(), par7.last_events(), r);
  }
}

TEST(ChunkSystem, StatefulChoosePolicyPinsSerialSweep) {
  // "random" choose is stateful (not concurrent-safe): the chunked engine
  // must fall back to the global row-major serial Signal sweep so the
  // policy sees the identical call sequence as the dense serial loop —
  // at every thread count.
  System dense(column_config(40), make_choose_policy("random", 7));
  dense.set_parallel_policy(ParallelPolicy::serial());
  chunk::ChunkedSystem ck(column_config(40), make_choose_policy("random", 7));
  ck.set_parallel_policy(ParallelPolicy::parallel(4));
  for (int r = 0; r < 150; ++r) {
    dense.update();
    ck.update();
    ASSERT_EQ(snapshot::state_digest(dense), snapshot::state_digest(ck))
        << "round " << r;
  }
}

TEST(ChunkSystem, SeedAndInjectionMatchDense) {
  const CellId target{34, 34};
  System dense = make_closed_dense(40, target);
  chunk::ChunkedSystem ck = make_closed_chunked(40, target);
  // Seed into a virgin chunk: the chunk must fault in and the entity
  // must flow to the target exactly as in the dense engine. (Six hops
  // at v = 0.1 keeps the arrival inside the 200-round budget.)
  const CellId at{34, 28};
  const Vec2 center{34.5, 28.5};
  const EntityId da = dense.seed_entity(at, center);
  const EntityId ca = ck.seed_entity(at, center);
  EXPECT_EQ(da, ca);
  EXPECT_EQ(ck.entity_count(), 1u);
  for (int r = 0; r < 200; ++r) {
    dense.update();
    ck.update();
    ASSERT_EQ(snapshot::state_digest(dense), snapshot::state_digest(ck))
        << "round " << r;
  }
  EXPECT_EQ(ck.total_arrivals(), 1u);
  EXPECT_EQ(ck.entity_count(), 0u);
}

TEST(ChunkSystem, ResidentBytesTrackActiveChunks) {
  // 5×5 chunks, everything quiet: after the world parks, the store's
  // footprint must fall well below the all-live peak even with the
  // freelist retaining its buffers.
  const CellId target{80, 80};
  chunk::ChunkedSystem ck = make_closed_chunked(160, target);
  std::uint64_t peak = 0;
  for (int r = 0; r < 360; ++r) {
    ck.update();
    peak = std::max(peak, ck.store().resident_bytes());
  }
  EXPECT_EQ(ck.store().live_count(), 1u);
  EXPECT_LT(ck.store().resident_bytes(), peak / 2);
}

}  // namespace
}  // namespace cellflow
