// The §III-A oracles fire on both shared-variable engines. Each bad state
// is built twice — on a dense System and on a chunk::ChunkedSystem of the
// same 2×2-chunk grid, by the same calls — and every violation must come
// back with the same predicate name, cell and detail on both, whether
// evaluated directly (check_all / check_h_predicate) or, for the
// round-end predicates, by a SafetyMonitor in one shared-Simulator step.
// Invariant 2 cannot be broken through the engines' own API, so those
// states are made by patching one entity id in each engine's own
// snapshot, re-sealing the checksum and restoring: restore does not check
// that ids are unique.
//
// (Suite name contains "Chunk" so the TSan and ASan ctest lanes run it.)
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "chunk/chunked_system.hpp"
#include "core/predicates.hpp"
#include "core/source.hpp"
#include "core/system.hpp"
#include "failure/failure_model.hpp"
#include "sim/observers.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"

namespace cellflow {
namespace {

const Params kP(0.2, 0.1, 0.1);  // d = 0.3
constexpr int kSide = 40;        // 2×2 chunks
const CellId kTarget{39, 39};
const CellId kFar{35, 3};  // in the second chunk, far from the target

SystemConfig closed_config() {
  SystemConfig cfg;
  cfg.side = kSide;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = kTarget;
  return cfg;
}

template <class Engine>
std::unique_ptr<Engine> make_closed() {
  return std::make_unique<Engine>(closed_config(), nullptr,
                                  std::make_unique<NullSource>());
}

/// The violations one Simulator step's SafetyMonitor records.
template <class Engine>
std::vector<Violation> monitored_step(Engine& sys) {
  BasicNoFailures<Engine> none;
  BasicSimulator<Engine> sim(sys, none);
  BasicSafetyMonitor<Engine> safety;
  sim.add_observer(safety);
  sim.step();
  return safety.violations();
}

void expect_same_violations(const std::vector<Violation>& dense,
                            const std::vector<Violation>& chunked) {
  ASSERT_EQ(dense.size(), chunked.size());
  for (std::size_t k = 0; k < dense.size(); ++k) {
    EXPECT_EQ(dense[k].predicate, chunked[k].predicate) << k;
    EXPECT_EQ(dense[k].cell, chunked[k].cell) << k;
    EXPECT_EQ(dense[k].detail, chunked[k].detail) << k;
  }
}

bool fires(const std::vector<Violation>& found, const char* predicate,
           CellId cell) {
  return std::any_of(found.begin(), found.end(), [&](const Violation& v) {
    return v.predicate == predicate && v.cell == cell;
  });
}

/// Builds the state `make` describes on both engines and checks that
/// check_all and a monitored step report the same violations, `predicate`
/// at `cell` among them.
template <class Make>
void expect_round_end_parity(Make make, const char* predicate, CellId cell) {
  auto dense = make_closed<System>();
  auto chunked = make_closed<chunk::ChunkedSystem>();
  make(*dense);
  make(*chunked);
  const std::vector<Violation> want = check_all(*dense);
  EXPECT_TRUE(fires(want, predicate, cell));
  expect_same_violations(want, check_all(*chunked));

  const std::vector<Violation> stepped = monitored_step(*dense);
  EXPECT_TRUE(fires(stepped, predicate, cell));
  expect_same_violations(stepped, monitored_step(*chunked));
}

/// Builds the state `make` describes on both engines and checks that
/// check_h_predicate reports the same violation, `cell` included.
template <class Make>
void expect_h_parity(Make make, CellId cell) {
  auto dense = make_closed<System>();
  auto chunked = make_closed<chunk::ChunkedSystem>();
  make(*dense);
  make(*chunked);
  const std::optional<Violation> want = check_h_predicate(*dense);
  const std::optional<Violation> got = check_h_predicate(*chunked);
  ASSERT_TRUE(want.has_value());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(want->predicate, "H");
  EXPECT_EQ(want->cell, cell);
  expect_same_violations({*want}, {*got});
}

TEST(ChunkOracleParity, CleanStatesAreCleanOnBothEngines) {
  const auto make = [](auto& sys) {
    sys.seed_entity(CellId{1, 1}, Vec2{1.5, 1.5});
    sys.seed_entity(kFar, Vec2{35.5, 3.5});
  };
  auto dense = make_closed<System>();
  auto chunked = make_closed<chunk::ChunkedSystem>();
  make(*dense);
  make(*chunked);
  EXPECT_TRUE(check_all(*dense).empty());
  EXPECT_TRUE(check_all(*chunked).empty());
  EXPECT_FALSE(check_h_predicate(*chunked).has_value());
  EXPECT_TRUE(monitored_step(*dense).empty());
  EXPECT_TRUE(monitored_step(*chunked).empty());
}

TEST(ChunkOracleParity, SafeAndFootprintOverlapFire) {
  // Centers closer than d on both axes, footprints overlapping.
  const auto make = [](auto& sys) {
    sys.seed_entity_unchecked(kFar, Vec2{35.5, 3.5});
    sys.seed_entity_unchecked(kFar, Vec2{35.6, 3.55});
  };
  expect_round_end_parity(make, "Safe", kFar);
  expect_round_end_parity(make, "FootprintOverlap", kFar);
}

TEST(ChunkOracleParity, FootprintGapFires) {
  // An edge gap of 0.05 < rs, with no overlap (l = 0.2), in a third chunk.
  const CellId cell{2, 37};
  expect_round_end_parity(
      [&](auto& sys) {
        sys.seed_entity_unchecked(cell, Vec2{2.3, 37.5});
        sys.seed_entity_unchecked(cell, Vec2{2.55, 37.5});
      },
      "FootprintGap", cell);
}

TEST(ChunkOracleParity, Invariant1Fires) {
  // Sticks out of its cell's west edge.
  expect_round_end_parity(
      [](auto& sys) { sys.seed_entity_unchecked(kFar, Vec2{35.05, 3.5}); },
      "Invariant1", kFar);
}

TEST(ChunkOracleParity, HFiresOnAnOccupiedStrip) {
  // A member in the west strip while the signal points west.
  expect_h_parity(
      [](auto& sys) {
        sys.seed_entity_unchecked(kFar, Vec2{35.2, 3.5});
        sys.corrupt_control_state(kFar, Dist::finite(4), CellId{35, 4},
                                  std::nullopt, CellId{34, 3});
      },
      kFar);
}

TEST(ChunkOracleParity, HFiresOnANonNeighborSignal) {
  expect_h_parity(
      [](auto& sys) {
        sys.corrupt_control_state(kFar, Dist::finite(4), std::nullopt,
                                  std::nullopt, CellId{20, 20});
      },
      kFar);
}

/// The little-endian bytes of `word`, as the snapshot writes a u64.
std::vector<std::uint8_t> le_bytes(std::uint64_t word) {
  std::vector<std::uint8_t> out;
  for (int b = 0; b < 8; ++b)
    out.push_back(static_cast<std::uint8_t>(word >> (8 * b)));
  return out;
}

/// Rewrites the id of the entity saved as (id, center) to `new_id` and
/// re-seals the checksum trailer.
std::vector<std::uint8_t> patch_entity_id(std::vector<std::uint8_t> bytes,
                                          EntityId id, Vec2 center,
                                          EntityId new_id) {
  std::vector<std::uint8_t> record = le_bytes(id.value);
  for (const double v : {center.x, center.y}) {
    const auto word = le_bytes(std::bit_cast<std::uint64_t>(v));
    record.insert(record.end(), word.begin(), word.end());
  }
  const auto at = std::search(bytes.begin(), bytes.end() - 8, record.begin(),
                              record.end());
  EXPECT_NE(at, bytes.end() - 8) << "entity record not found";
  const auto replacement = le_bytes(new_id.value);
  std::copy(replacement.begin(), replacement.end(), at);
  bytes.resize(bytes.size() - 8);
  const auto trailer = le_bytes(snapshot::fnv1a(bytes));
  bytes.insert(bytes.end(), trailer.begin(), trailer.end());
  return bytes;
}

/// An engine restored from its own snapshot with entity 1's id patched to
/// entity 0's.
template <class Engine>
std::unique_ptr<Engine> duplicated_id_state() {
  auto sys = make_closed<Engine>();
  const EntityId first = sys->seed_entity(CellId{1, 1}, Vec2{1.5, 1.5});
  const EntityId second = sys->seed_entity(kFar, Vec2{35.5, 3.5});
  const std::vector<std::uint8_t> bytes = patch_entity_id(
      snapshot::save(*sys), second, Vec2{35.5, 3.5}, first);
  auto restored = make_closed<Engine>();
  snapshot::restore(*restored, bytes);
  return restored;
}

TEST(ChunkOracleParity, Invariant2FiresOnARestoredDuplicateId) {
  auto dense = duplicated_id_state<System>();
  auto chunked = duplicated_id_state<chunk::ChunkedSystem>();
  const std::vector<Violation> want = check_all(*dense);
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(want.front().predicate, "Invariant2");
  EXPECT_EQ(want.front().cell, kFar);
  expect_same_violations(want, check_all(*chunked));

  const std::vector<Violation> stepped = monitored_step(*dense);
  EXPECT_TRUE(fires(stepped, "Invariant2", kFar));
  expect_same_violations(stepped, monitored_step(*chunked));
}

}  // namespace
}  // namespace cellflow
