// The round-end §III-A oracles (Safe, Invariant 1, Invariant 2, footprint
// separation) against a naive reference written here: each predicate its
// own loop over every grid cell, read through the engine's cell(id) in
// the engine's visiting order, Invariant 2 through a std::set. The
// library's check_all — and, on a System, each check_* — must return
// exactly what the reference returns: the same predicates, cells and
// detail strings, in the same order.
//
// OracleDifferential runs 48 seeds of randomized executions with
// fail/recover churn on a System (serial and parallel(4)), a
// chunk::ChunkedSystem of 2×2 chunks and a MessageSystem, comparing every
// round, then piles random unchecked entities onto the two
// shared-variable engines and compares after each one.
//
// OracleMutation builds fixed corruptions on System and ChunkedSystem
// alike: each predicate broken alone, all four at once, duplicate ids
// (across two cells and within one cell, from a patched and re-sealed
// snapshot, since the engines' own API cannot produce them) and ids far
// above next_entity_id. Each must fire exactly as the reference says.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chunk/chunked_system.hpp"
#include "core/predicates.hpp"
#include "core/source.hpp"
#include "core/system.hpp"
#include "failure/failure_model.hpp"
#include "geometry/rect.hpp"
#include "msg/msg_system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

// --- the reference ----------------------------------------------------------

struct Visit {
  CellId id;
  std::vector<Entity> members;
};

/// Every grid cell in dense index order (System's and MessageSystem's
/// for_each_cell order).
template <class Engine>
std::vector<Visit> dense_visits(const Engine& sys) {
  std::vector<Visit> out;
  const int side = sys.grid().side();
  for (int j = 0; j < side; ++j)
    for (int i = 0; i < side; ++i)
      out.push_back({CellId{i, j}, sys.cell(CellId{i, j}).members});
  return out;
}

std::vector<Visit> visits(const System& sys) { return dense_visits(sys); }
std::vector<Visit> visits(const MessageSystem& msg) {
  return dense_visits(msg);
}

/// Every grid cell, chunk by chunk in ascending chunk index and row-major
/// within each (ChunkedSystem's for_each_cell order) — parked and virgin
/// chunks included, reconstructed by cell(id).
std::vector<Visit> visits(const chunk::ChunkedSystem& sys) {
  std::vector<Visit> out;
  const chunk::ChunkLayout& layout = sys.store().layout();
  for (std::size_t q = 0; q < layout.chunk_count(); ++q) {
    const chunk::ChunkLayout::Rect r = layout.rect_of(q);
    for (int j = r.j0; j < r.j0 + r.h; ++j)
      for (int i = r.i0; i < r.i0 + r.w; ++i)
        out.push_back({CellId{i, j}, sys.cell(CellId{i, j}).members});
  }
  return out;
}

std::string pair_detail(const Entity& p, const Entity& q) {
  return to_string(p.id) + " at " + to_string(p.center) + " vs " +
         to_string(q.id) + " at " + to_string(q.center);
}

std::optional<Violation> ref_safe(const std::vector<Visit>& cells,
                                  const Params& prm) {
  const double d = prm.center_spacing();
  for (const Visit& v : cells)
    for (std::size_t a = 0; a < v.members.size(); ++a)
      for (std::size_t b = a + 1; b < v.members.size(); ++b) {
        const Vec2 pa = v.members[a].center;
        const Vec2 pb = v.members[b].center;
        if (std::abs(pa.x - pb.x) < d - kPredicateEps &&
            std::abs(pa.y - pb.y) < d - kPredicateEps)
          return Violation{"Safe", v.id,
                           pair_detail(v.members[a], v.members[b])};
      }
  return std::nullopt;
}

std::optional<Violation> ref_in_bounds(const std::vector<Visit>& cells,
                                       const Params& prm) {
  const double half = prm.entity_length() / 2.0;
  for (const Visit& v : cells) {
    const auto i = static_cast<double>(v.id.i);
    const auto j = static_cast<double>(v.id.j);
    for (const Entity& p : v.members) {
      const bool ok = p.center.x - half >= i - kPredicateEps &&
                      p.center.x + half <= i + 1.0 + kPredicateEps &&
                      p.center.y - half >= j - kPredicateEps &&
                      p.center.y + half <= j + 1.0 + kPredicateEps;
      if (!ok)
        return Violation{"Invariant1", v.id,
                         to_string(p.id) + " at " + to_string(p.center)};
    }
  }
  return std::nullopt;
}

std::optional<Violation> ref_disjoint(const std::vector<Visit>& cells) {
  std::set<std::uint64_t> seen;
  for (const Visit& v : cells)
    for (const Entity& p : v.members)
      if (!seen.insert(p.id.value).second)
        return Violation{"Invariant2", v.id,
                         to_string(p.id) + " appears in two cells"};
  return std::nullopt;
}

std::optional<Violation> ref_footprint(const std::vector<Visit>& cells,
                                       const Params& prm) {
  const double l = prm.entity_length();
  const double rs = prm.safety_gap();
  for (const Visit& v : cells)
    for (std::size_t a = 0; a < v.members.size(); ++a)
      for (std::size_t b = a + 1; b < v.members.size(); ++b) {
        const Rect ra = v.members[a].footprint(l);
        const Rect rb = v.members[b].footprint(l);
        if (ra.overlaps(rb))
          return Violation{"FootprintOverlap", v.id,
                           pair_detail(v.members[a], v.members[b])};
        if (ra.linf_gap(rb) < rs - kPredicateEps)
          return Violation{"FootprintGap", v.id,
                           pair_detail(v.members[a], v.members[b])};
      }
  return std::nullopt;
}

struct Reference {
  std::optional<Violation> safe, in_bounds, disjoint, footprint;

  [[nodiscard]] std::vector<Violation> all() const {
    std::vector<Violation> out;
    for (const auto* v : {&safe, &in_bounds, &disjoint, &footprint})
      if (v->has_value()) out.push_back(**v);
    return out;
  }
};

template <class Engine>
Reference reference(const Engine& sys) {
  const std::vector<Visit> cells = visits(sys);
  return {ref_safe(cells, sys.params()), ref_in_bounds(cells, sys.params()),
          ref_disjoint(cells), ref_footprint(cells, sys.params())};
}

// --- comparisons ------------------------------------------------------------

void expect_same(const std::optional<Violation>& got,
                 const std::optional<Violation>& want,
                 const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value())
      << where << ": got " << (got ? to_string(*got) : "none") << ", want "
      << (want ? to_string(*want) : "none");
  if (!want) return;
  EXPECT_EQ(got->predicate, want->predicate) << where;
  EXPECT_EQ(got->cell, want->cell) << where;
  EXPECT_EQ(got->detail, want->detail) << where;
}

void expect_same(const std::vector<Violation>& got,
                 const std::vector<Violation>& want,
                 const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t k = 0; k < want.size(); ++k)
    expect_same(std::optional<Violation>(got[k]),
                std::optional<Violation>(want[k]),
                where + " #" + std::to_string(k));
}

/// check_all equals the reference; on a System each check_* equals its
/// own slot too. Returns the reference's list.
template <class Engine>
std::vector<Violation> expect_matches_reference(const Engine& sys,
                                                const std::string& where) {
  const Reference want = reference(sys);
  expect_same(check_all(sys), want.all(), where + " check_all");
  if constexpr (std::is_same_v<Engine, System>) {
    expect_same(check_safe(sys), want.safe, where + " check_safe");
    expect_same(check_members_in_bounds(sys), want.in_bounds,
                where + " check_members_in_bounds");
    expect_same(check_members_disjoint(sys), want.disjoint,
                where + " check_members_disjoint");
    expect_same(check_footprints_separated(sys), want.footprint,
                where + " check_footprints_separated");
  }
  return want.all();
}

// --- randomized executions --------------------------------------------------

constexpr int kSide = 40;  // 2×2 chunks of 32
const Params kP(0.2, 0.1, 0.1);

SystemConfig churn_config(Xoshiro256& rng) {
  SystemConfig cfg;
  cfg.side = kSide;
  cfg.params = kP;
  cfg.target = CellId{static_cast<int>(rng.below(kSide)),
                      static_cast<int>(rng.below(kSide))};
  cfg.sources.clear();
  for (int k = 0; k < 6; ++k) {
    const CellId s{static_cast<int>(rng.below(kSide)),
                   static_cast<int>(rng.below(kSide))};
    if (s != cfg.target) cfg.sources.push_back(s);
  }
  return cfg;
}

/// Tries `count` random placements through the checked seed_entity; the
/// rejected ones are skipped, so the crowd is safe but dense.
template <class Engine>
void seed_crowd(Engine& sys, std::uint64_t seed, int count) {
  Xoshiro256 rng(seed);
  for (int k = 0; k < count; ++k) {
    const CellId id{static_cast<int>(rng.below(kSide)),
                    static_cast<int>(rng.below(kSide))};
    const Vec2 at{id.i + rng.uniform(0.1, 0.9), id.j + rng.uniform(0.1, 0.9)};
    if (id == sys.target()) continue;
    try {
      (void)sys.seed_entity(id, at);
    } catch (const ContractViolation&) {
      // unsafe placement — skipped
    }
  }
}

/// Piles unchecked entities at random spots (some outside their cell,
/// some too close to others) and compares after each one.
template <class Engine>
void corrupt_and_compare(Engine& sys, std::uint64_t seed,
                         const std::string& leg) {
  Xoshiro256 rng(seed);
  for (int k = 0; k < 16; ++k) {
    const CellId id{static_cast<int>(rng.below(kSide)),
                    static_cast<int>(rng.below(kSide))};
    sys.seed_entity_unchecked(
        id, Vec2{id.i + rng.uniform(-0.05, 1.05), id.j + rng.uniform(0.0, 1.0)});
    expect_matches_reference(sys, leg + " corruption " + std::to_string(k));
  }
}

template <class Engine>
void run_and_compare(Engine& sys, std::uint64_t seed, int rounds,
                     const std::string& leg) {
  BasicRandomFailRecover<Engine> churn(0.01, 0.2, seed ^ 0xC4u, true);
  expect_matches_reference(sys, leg + " round 0");
  for (int r = 1; r <= rounds; ++r) {
    churn.apply(sys);
    sys.update();
    expect_matches_reference(sys, leg + " round " + std::to_string(r));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(churn.total_failures(), 0u) << leg;
}

class OracleDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleDifferential, EveryEngineMatchesTheReferenceEveryRound) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  const SystemConfig cfg = churn_config(rng);
  constexpr int kRounds = 40;

  System serial(cfg);
  serial.set_parallel_policy(ParallelPolicy::serial());
  seed_crowd(serial, seed, 900);
  run_and_compare(serial, seed, kRounds, "serial");
  corrupt_and_compare(serial, seed, "serial");

  System pooled(cfg);
  pooled.set_parallel_policy(ParallelPolicy::parallel(4));
  seed_crowd(pooled, seed, 900);
  run_and_compare(pooled, seed, kRounds, "parallel(4)");

  chunk::ChunkedSystem chunked(cfg);
  chunked.set_parallel_policy(ParallelPolicy::serial());
  ASSERT_EQ(chunked.store().chunk_count(), 4u);
  seed_crowd(chunked, seed, 900);
  run_and_compare(chunked, seed, kRounds, "chunked");
  corrupt_and_compare(chunked, seed, "chunked");

  MsgSystemConfig mc;
  mc.side = cfg.side;
  mc.params = cfg.params;
  mc.target = cfg.target;
  mc.sources = cfg.sources;
  MessageSystem msg(mc);
  run_and_compare(msg, seed, kRounds, "message");
  EXPECT_GT(msg.entity_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleDifferential,
                         ::testing::Range<std::uint64_t>(1, 49));

// --- fixed corruptions ------------------------------------------------------

SystemConfig closed_config() {
  SystemConfig cfg;
  cfg.side = kSide;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = CellId{39, 39};
  return cfg;
}

template <class Engine>
std::unique_ptr<Engine> make_closed() {
  return std::make_unique<Engine>(closed_config(), nullptr,
                                  std::make_unique<NullSource>());
}

std::vector<std::uint8_t> le_bytes(std::uint64_t word) {
  std::vector<std::uint8_t> out;
  for (int b = 0; b < 8; ++b)
    out.push_back(static_cast<std::uint8_t>(word >> (8 * b)));
  return out;
}

struct IdPatch {
  EntityId id;
  Vec2 center;
  std::uint64_t new_id;
};

/// Rewrites the id of each entity saved as (id, center) and re-seals the
/// checksum trailer.
std::vector<std::uint8_t> patch_ids(std::vector<std::uint8_t> bytes,
                                    const std::vector<IdPatch>& patches) {
  for (const IdPatch& p : patches) {
    std::vector<std::uint8_t> record = le_bytes(p.id.value);
    for (const double v : {p.center.x, p.center.y}) {
      const auto word = le_bytes(std::bit_cast<std::uint64_t>(v));
      record.insert(record.end(), word.begin(), word.end());
    }
    const auto at = std::search(bytes.begin(), bytes.end() - 8,
                                record.begin(), record.end());
    EXPECT_NE(at, bytes.end() - 8) << "entity record not found";
    const auto replacement = le_bytes(p.new_id);
    std::copy(replacement.begin(), replacement.end(), at);
  }
  bytes.resize(bytes.size() - 8);
  const auto trailer = le_bytes(snapshot::fnv1a(bytes));
  bytes.insert(bytes.end(), trailer.begin(), trailer.end());
  return bytes;
}

/// An engine holding `placements` (unchecked), restored from its own
/// snapshot with the ids of `renames` (index into placements → new id)
/// rewritten.
struct Placement {
  CellId cell;
  Vec2 center;
};

template <class Engine>
std::unique_ptr<Engine> build(
    const std::vector<Placement>& placements,
    const std::vector<std::pair<std::size_t, std::uint64_t>>& renames = {}) {
  auto sys = make_closed<Engine>();
  std::vector<EntityId> ids;
  for (const Placement& p : placements)
    ids.push_back(sys->seed_entity_unchecked(p.cell, p.center));
  if (renames.empty()) return sys;
  std::vector<IdPatch> patches;
  for (const auto& [k, new_id] : renames)
    patches.push_back({ids[k], placements[k].center, new_id});
  auto restored = make_closed<Engine>();
  snapshot::restore(*restored, patch_ids(snapshot::save(*sys), patches));
  return restored;
}

/// Builds the state on both shared-variable engines, requires each to
/// match the reference, and returns the predicates that fired on each.
struct Fired {
  std::vector<Violation> dense;
  std::vector<Violation> chunked;
};

Fired fire(const std::vector<Placement>& placements,
           const std::vector<std::pair<std::size_t, std::uint64_t>>& renames =
               {}) {
  Fired out;
  out.dense = expect_matches_reference(*build<System>(placements, renames),
                                       "System");
  out.chunked = expect_matches_reference(
      *build<chunk::ChunkedSystem>(placements, renames), "ChunkedSystem");
  return out;
}

std::vector<std::string> names(const std::vector<Violation>& vs) {
  std::vector<std::string> out;
  for (const Violation& v : vs) out.push_back(v.predicate);
  return out;
}

using Names = std::vector<std::string>;

// Safe and footprint separation are one condition in exact arithmetic
// (d = l + rs); they part only by rounding at the boundary. These two
// pairs sit on that edge: |Δx| is one rounding under d − eps for Safe but
// not under rs − eps for the footprint gap, and the other way round.
TEST(OracleMutation, SafeAlone) {
  const Fired f = fire({{CellId{0, 5}, Vec2{0.15, 5.5}},
                        {CellId{0, 5}, Vec2{0.449999999, 5.5}}});
  ASSERT_EQ(names(f.dense), Names{"Safe"});
  EXPECT_EQ(f.dense.front().cell, (CellId{0, 5}));
  EXPECT_EQ(names(f.chunked), Names{"Safe"});
}

TEST(OracleMutation, FootprintGapAlone) {
  const Fired f = fire({{CellId{0, 5}, Vec2{0.11, 5.5}},
                        {CellId{0, 5}, Vec2{0.409999999, 5.5}}});
  EXPECT_EQ(names(f.dense), Names{"FootprintGap"});
  EXPECT_EQ(names(f.chunked), Names{"FootprintGap"});
}

TEST(OracleMutation, OverlapBreaksSafeAndFootprint) {
  const Fired f = fire({{CellId{7, 2}, Vec2{7.5, 2.5}},
                        {CellId{7, 2}, Vec2{7.6, 2.55}}});
  EXPECT_EQ(names(f.dense), (Names{"Safe", "FootprintOverlap"}));
  EXPECT_EQ(names(f.chunked), (Names{"Safe", "FootprintOverlap"}));
}

TEST(OracleMutation, Invariant1Alone) {
  const Fired f = fire({{CellId{12, 30}, Vec2{12.05, 30.5}}});
  EXPECT_EQ(names(f.dense), Names{"Invariant1"});
  EXPECT_EQ(names(f.chunked), Names{"Invariant1"});
}

TEST(OracleMutation, Invariant2AcrossTwoCells) {
  // Entity 2 (cell <35,3>, chunk 1) takes entity 0's id (cell <1,10>,
  // chunk 0): the dense sweep meets <35,3> first, the chunked one <1,10>.
  const Fired f = fire({{CellId{1, 10}, Vec2{1.5, 10.5}},
                        {CellId{20, 20}, Vec2{20.5, 20.5}},
                        {CellId{35, 3}, Vec2{35.5, 3.5}}},
                       {{2, 0}});
  ASSERT_EQ(names(f.dense), Names{"Invariant2"});
  EXPECT_EQ(f.dense.front().cell, (CellId{1, 10}));
  ASSERT_EQ(names(f.chunked), Names{"Invariant2"});
  EXPECT_EQ(f.chunked.front().cell, (CellId{35, 3}));
}

TEST(OracleMutation, Invariant2WithinOneCell) {
  const Fired f = fire({{CellId{4, 4}, Vec2{4.2, 4.5}},
                        {CellId{4, 4}, Vec2{4.8, 4.5}}},
                       {{1, 0}});
  ASSERT_EQ(names(f.dense), Names{"Invariant2"});
  EXPECT_EQ(f.dense.front().cell, (CellId{4, 4}));
  EXPECT_EQ(f.dense.front().detail, "p0 appears in two cells");
  EXPECT_EQ(names(f.chunked), Names{"Invariant2"});
}

TEST(OracleMutation, FarIdsAreCheckedExactly) {
  constexpr std::uint64_t kFarId = std::uint64_t{1} << 40;
  // Distinct ids far above next_entity_id, including ones that agree with
  // each other or with a live id in their low bits: nothing fires.
  const Fired distinct = fire({{CellId{2, 2}, Vec2{2.5, 2.5}},
                               {CellId{3, 3}, Vec2{3.5, 3.5}},
                               {CellId{36, 36}, Vec2{36.5, 36.5}},
                               {CellId{5, 37}, Vec2{5.5, 37.5}}},
                              {{1, kFarId},
                               {2, kFarId + (std::uint64_t{1} << 20)},
                               {3, (std::uint64_t{1} << 32)}});
  EXPECT_TRUE(distinct.dense.empty());
  EXPECT_TRUE(distinct.chunked.empty());
  // The same far id twice: caught, at the second cell visited.
  const Fired twice = fire({{CellId{2, 2}, Vec2{2.5, 2.5}},
                            {CellId{36, 3}, Vec2{36.5, 3.5}},
                            {CellId{3, 33}, Vec2{3.5, 33.5}}},
                           {{1, kFarId}, {2, kFarId}});
  ASSERT_EQ(names(twice.dense), Names{"Invariant2"});
  EXPECT_EQ(twice.dense.front().cell, (CellId{3, 33}));
  ASSERT_EQ(names(twice.chunked), Names{"Invariant2"});
  EXPECT_EQ(twice.chunked.front().cell, (CellId{3, 33}));
}

TEST(OracleMutation, AllFourAtOnceKeepTheirOrder) {
  // Two violations of each predicate, in different chunks, so the first
  // in visiting order differs between the dense and the chunked sweep.
  const Fired f = fire(
      {
          {CellId{33, 1}, Vec2{33.5, 1.5}},   // 0: Safe + overlap, chunk 1
          {CellId{33, 1}, Vec2{33.55, 1.5}},  // 1
          {CellId{6, 8}, Vec2{6.5, 8.5}},     // 2: Safe + gap, chunk 0
          {CellId{6, 8}, Vec2{6.75, 8.6}},    // 3
          {CellId{38, 0}, Vec2{38.02, 0.5}},  // 4: Invariant1, chunk 1
          {CellId{9, 9}, Vec2{9.5, 9.97}},    // 5: Invariant1, chunk 0
          {CellId{10, 2}, Vec2{10.5, 2.5}},   // 6: id → p8, chunk 0
          {CellId{34, 0}, Vec2{34.5, 0.5}},   // 7: id → p8, chunk 1
          {CellId{1, 35}, Vec2{1.5, 35.5}},   // 8
      },
      {{6, 8}, {7, 8}});
  ASSERT_EQ(names(f.dense), (Names{"Safe", "Invariant1", "Invariant2",
                                   "FootprintOverlap"}));
  EXPECT_EQ(f.dense[0].cell, (CellId{33, 1}));
  EXPECT_EQ(f.dense[1].cell, (CellId{38, 0}));
  EXPECT_EQ(f.dense[2].cell, (CellId{10, 2}));
  EXPECT_EQ(f.dense[3].cell, (CellId{33, 1}));
  ASSERT_EQ(names(f.chunked),
            (Names{"Safe", "Invariant1", "Invariant2", "FootprintGap"}));
  EXPECT_EQ(f.chunked[0].cell, (CellId{6, 8}));
  EXPECT_EQ(f.chunked[1].cell, (CellId{9, 9}));
  EXPECT_EQ(f.chunked[2].cell, (CellId{34, 0}));
  EXPECT_EQ(f.chunked[3].cell, (CellId{6, 8}));
}

}  // namespace
}  // namespace cellflow
