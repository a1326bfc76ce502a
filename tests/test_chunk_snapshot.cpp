// Chunked snapshot tests (DESIGN.md §12): the chunks section (tag 11)
// serializes only materialized chunks — live ones as full cells, parked
// ones as their summaries — and a restored engine continues
// bit-identically, parked regions included. The digest is defined over
// the full N×N cell space regardless of materialization, so dense and
// chunked engines in the same protocol state collide on it. Adversarial
// bytes against the chunk decoder surface as typed SnapshotErrors with
// the target engine untouched, exactly like the dense format suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "chunk/chunked_system.hpp"
#include "core/source.hpp"
#include "core/system.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/wire.hpp"

namespace cellflow {
namespace {

using snapshot::Errc;
using snapshot::SnapshotError;

constexpr std::uint32_t kTagChunks = 11;

SystemConfig column_config(int side) {
  SystemConfig cfg;
  cfg.side = side;
  cfg.params = Params(0.25, 0.05, 0.1);
  cfg.sources = {CellId{1, 0}};
  cfg.target = CellId{1, side - 1};
  return cfg;
}

/// A fresh closed world on a 2×2-chunk grid: no source, target (33, 33).
/// Side 64 keeps every chunk exactly 32×32 so chunk payloads are
/// interchangeable in size — the byte surgeries below rely on that.
template <class Sys>
Sys closed_world() {
  SystemConfig cfg;
  cfg.side = 64;
  cfg.params = Params(0.25, 0.05, 0.1);
  cfg.sources = {};
  cfg.target = CellId{33, 33};
  return Sys(std::move(cfg), nullptr, std::make_unique<NullSource>());
}

/// The closed world after 160 rounds, when its three unpinned chunks have
/// all parked: the canonical fixture for parked-region serialization.
chunk::ChunkedSystem parked_world() {
  chunk::ChunkedSystem sys = closed_world<chunk::ChunkedSystem>();
  for (int r = 0; r < 160; ++r) sys.update();
  return sys;
}

std::vector<std::uint8_t> refix_checksum(std::vector<std::uint8_t> b) {
  b.resize(b.size() - 8);
  const std::uint64_t c =
      snapshot::fnv1a(std::span<const std::uint8_t>(b.data(), b.size()));
  for (int k = 0; k < 8; ++k) {
    b.push_back(static_cast<std::uint8_t>((c >> (8 * k)) & 0xFFu));
  }
  return b;
}

/// [start, end) of the section with tag `want`, header included.
std::pair<std::size_t, std::size_t> section_span(
    const std::vector<std::uint8_t>& bytes, std::uint32_t want) {
  std::size_t at = 8;
  for (;;) {
    const auto tag = static_cast<std::uint32_t>(
        static_cast<std::uint32_t>(bytes[at]) |
        (static_cast<std::uint32_t>(bytes[at + 1]) << 8) |
        (static_cast<std::uint32_t>(bytes[at + 2]) << 16) |
        (static_cast<std::uint32_t>(bytes[at + 3]) << 24));
    std::uint64_t len = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      len |= static_cast<std::uint64_t>(bytes[at + 4 + k]) << (8 * k);
    }
    const std::size_t end = at + 12 + static_cast<std::size_t>(len);
    if (tag == want) return {at, end};
    at = end;
  }
}

void expect_rejected(chunk::ChunkedSystem& sys,
                     const std::vector<std::uint8_t>& bytes, Errc code,
                     const char* what) {
  const std::uint64_t before = snapshot::state_digest(sys);
  try {
    snapshot::restore(sys, bytes);
    FAIL() << what << ": accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), code) << what << ": " << e.what();
  }
  EXPECT_EQ(snapshot::state_digest(sys), before)
      << what << ": failed restore mutated the engine";
}

TEST(ChunkSnapshot, RoundTripContinuesBitIdentically) {
  chunk::ChunkedSystem sys(column_config(40));
  for (int r = 0; r < 60; ++r) sys.update();
  const auto bytes = snapshot::save(sys);

  chunk::ChunkedSystem restored(column_config(40));
  snapshot::restore(restored, bytes);
  ASSERT_EQ(snapshot::state_digest(restored), snapshot::state_digest(sys));
  ASSERT_EQ(restored.round(), sys.round());
  ASSERT_EQ(restored.store().live_count(), sys.store().live_count());
  ASSERT_EQ(restored.store().parked_count(), sys.store().parked_count());

  for (int r = 0; r < 60; ++r) {
    const RoundEvents& a = sys.update();
    const RoundEvents& b = restored.update();
    ASSERT_EQ(a.moved, b.moved) << "round " << r;
    ASSERT_EQ(a.blocked, b.blocked) << "round " << r;
    ASSERT_EQ(a.injected, b.injected) << "round " << r;
    ASSERT_EQ(snapshot::state_digest(sys), snapshot::state_digest(restored))
        << "round " << r;
  }
}

TEST(ChunkSnapshot, ParkedRegionsTravelAsSummaries) {
  chunk::ChunkedSystem sys = parked_world();
  ASSERT_EQ(sys.store().parked_count(), 3u);
  ASSERT_EQ(sys.store().live_count(), 1u);
  const auto bytes = snapshot::save(sys);

  // For comparison: the same protocol state in the dense store, every
  // cell on the wire in full, is much bigger.
  System dense = closed_world<System>();
  for (int r = 0; r < 160; ++r) dense.update();
  ASSERT_EQ(snapshot::state_digest(dense), snapshot::state_digest(sys));
  EXPECT_LT(bytes.size() * 2, snapshot::save(dense).size())
      << "parked summaries must be far smaller than full cells";

  chunk::ChunkedSystem restored = closed_world<chunk::ChunkedSystem>();
  snapshot::restore(restored, bytes);
  EXPECT_EQ(restored.store().parked_count(), 3u);
  EXPECT_EQ(restored.store().live_count(), 1u);
  EXPECT_EQ(snapshot::state_digest(restored), snapshot::state_digest(sys));

  // The restored engine keeps behaving: perturb a (restored) parked
  // region and continue against the original.
  sys.fail(CellId{5, 5});
  restored.fail(CellId{5, 5});
  for (int r = 0; r < 40; ++r) {
    sys.update();
    restored.update();
    ASSERT_EQ(snapshot::state_digest(sys), snapshot::state_digest(restored))
        << "round " << r;
  }
}

TEST(ChunkSnapshot, RestoredEngineCountsSkippedCellsLikeTheOriginal) {
  // The tallies of the cells a round skips come from live totals that a
  // restore recounts, parked summaries' failed cells included: both
  // failures below sit in chunks that park.
  chunk::ChunkedSystem sys = closed_world<chunk::ChunkedSystem>();
  sys.fail(CellId{5, 5});
  sys.fail(CellId{40, 3});
  for (int r = 0; r < 160; ++r) sys.update();
  ASSERT_EQ(sys.store().parked_count(), 3u);

  chunk::ChunkedSystem restored = closed_world<chunk::ChunkedSystem>();
  snapshot::restore(restored, snapshot::save(sys));
  obs::MetricsRegistry original_reg;
  obs::MetricsRegistry restored_reg;
  sys.set_metrics(&original_reg);
  restored.set_metrics(&restored_reg);
  for (int r = 0; r < 20; ++r) {
    sys.update();
    restored.update();
  }
  EXPECT_EQ(obs::to_prometheus(restored_reg), obs::to_prometheus(original_reg));
}

TEST(ChunkSnapshot, DigestAgreesAcrossStorageModels) {
  // Dense and chunked engines stepped in lockstep produce the SAME
  // digest at every round boundary — the cross-model equality currency.
  System dense(column_config(40));
  dense.set_parallel_policy(ParallelPolicy::serial());
  chunk::ChunkedSystem ck(column_config(40));
  ck.set_parallel_policy(ParallelPolicy::serial());
  ASSERT_EQ(snapshot::state_digest(dense), snapshot::state_digest(ck));
  for (int r = 0; r < 80; ++r) {
    dense.update();
    ck.update();
    ASSERT_EQ(snapshot::state_digest(dense), snapshot::state_digest(ck))
        << "round " << r;
  }
}

TEST(ChunkSnapshot, RealizationsRejectEachOthersSnapshots) {
  System dense(column_config(40));
  for (int r = 0; r < 20; ++r) dense.update();
  chunk::ChunkedSystem ck(column_config(40));
  for (int r = 0; r < 20; ++r) ck.update();

  const auto dense_bytes = snapshot::save(dense);
  const auto chunk_bytes = snapshot::save(ck);

  expect_rejected(ck, dense_bytes, Errc::kConfigMismatch,
                  "dense snapshot into chunked engine");
  const std::uint64_t before = snapshot::state_digest(dense);
  try {
    snapshot::restore(dense, chunk_bytes);
    FAIL() << "chunked snapshot accepted by dense engine";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), Errc::kConfigMismatch);
  }
  EXPECT_EQ(snapshot::state_digest(dense), before);
}

TEST(ChunkSnapshot, AdversarialChunkBytesAreTypedAndAtomic) {
  chunk::ChunkedSystem sys = parked_world();
  ASSERT_GT(sys.store().parked_count(), 0u);
  const auto bytes = snapshot::save(sys);
  const auto [c0, c1] = section_span(bytes, kTagChunks);

  chunk::ChunkedSystem target = closed_world<chunk::ChunkedSystem>();

  // Payload layout after the 12-byte section header: u64 chunk count,
  // then per chunk u32 index + u8 state + fixed-size body. The fixture's
  // first materialized chunk is q=0, parked (the target chunk, q=3, is
  // the only live one), so its body is 32×32 (meta u8, dist u32) pairs
  // starting at c0+25.
  {
    auto m = bytes;
    m[c0 + 12] = 50;  // chunk count beyond the 2×2 grid
    expect_rejected(target, refix_checksum(std::move(m)), Errc::kMalformed,
                    "count beyond chunk grid");
  }
  {
    auto m = bytes;
    m[c0 + 20] = 0xFF;  // first chunk index off the grid
    m[c0 + 21] = 0xFF;
    expect_rejected(target, refix_checksum(std::move(m)), Errc::kMalformed,
                    "chunk index off the grid");
  }
  {
    auto m = bytes;
    m[c0 + 20] = 3;  // first chunk claims index 3: order violation later
    expect_rejected(target, refix_checksum(std::move(m)), Errc::kMalformed,
                    "non-ascending chunk indices");
  }
  {
    auto m = bytes;
    m[c0 + 24] = 7;  // state byte outside {live, parked}
    expect_rejected(target, refix_checksum(std::move(m)), Errc::kMalformed,
                    "chunk state byte");
  }
  {
    auto m = bytes;
    ASSERT_EQ(m[c0 + 24], 2u) << "fixture's first chunk must be parked";
    m[c0 + 25] |= 0x08;  // reserved meta bit
    expect_rejected(target, refix_checksum(std::move(m)), Errc::kMalformed,
                    "reserved meta bits");
  }
  {
    auto m = bytes;
    m[c0 + 25] = 5;  // direction code past kNoDir
    expect_rejected(target, refix_checksum(std::move(m)), Errc::kMalformed,
                    "direction code out of range");
  }
  {
    auto m = bytes;
    // Slot 0 of chunk 0 is cell (0,0): a west next pointer points off
    // the grid, which no protocol state can produce.
    m[c0 + 25] = 1;
    expect_rejected(target, refix_checksum(std::move(m)), Errc::kMalformed,
                    "parked next pointer off the grid");
  }
  {
    // Delete the whole chunks section: required for this realization.
    auto m = bytes;
    m.erase(m.begin() + static_cast<std::ptrdiff_t>(c0),
            m.begin() + static_cast<std::ptrdiff_t>(c1));
    expect_rejected(target, refix_checksum(std::move(m)),
                    Errc::kMissingSection, "missing chunks section");
  }
  // The unmutated original must still restore cleanly afterwards.
  snapshot::restore(target, bytes);
  EXPECT_EQ(snapshot::state_digest(target), snapshot::state_digest(sys));
}

}  // namespace
}  // namespace cellflow
