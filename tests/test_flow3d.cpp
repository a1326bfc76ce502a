// Tests for the 3-D extension (§V): topology, axis-generic strips,
// routing convergence, safety under load and failures, progress through
// 3-D paths, and consistency with the 2-D system on planar instances.
#include "flow3d/system3.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flow3d/predicates3.hpp"
#include "snapshot/wire.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

const Params kP(0.2, 0.1, 0.1);  // d = 0.3

System3 tower(int nx = 4, int ny = 4, int nz = 6) {
  System3Config cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.nz = nz;
  cfg.params = kP;
  cfg.sources = {CellId3{1, 1, 0}};
  cfg.target = CellId3{1, 1, nz - 1};
  return System3(cfg);
}

TEST(Grid3, IndexRoundTripAndBounds) {
  const Grid3 g(3, 4, 5);
  EXPECT_EQ(g.cell_count(), 60u);
  for (std::size_t k = 0; k < g.cell_count(); ++k)
    EXPECT_EQ(g.index_of(g.id_of(k)), k);
  EXPECT_TRUE(g.contains(CellId3{2, 3, 4}));
  EXPECT_FALSE(g.contains(CellId3{3, 0, 0}));
  EXPECT_FALSE(g.contains(CellId3{0, 0, -1}));
  EXPECT_THROW(Grid3(0, 1, 1), ContractViolation);
}

TEST(Grid3, InteriorCellHasSixNeighbors) {
  const Grid3 g(4, 4, 4);
  EXPECT_EQ(g.neighbors(CellId3{1, 1, 1}).size(), 6u);
  EXPECT_EQ(g.neighbors(CellId3{0, 0, 0}).size(), 3u);  // corner
  EXPECT_EQ(g.neighbors(CellId3{0, 1, 1}).size(), 5u);  // face
  EXPECT_EQ(g.neighbors(CellId3{0, 0, 1}).size(), 4u);  // edge
}

TEST(Grid3, NeighborRelationAndDirections) {
  const Grid3 g(4, 4, 4);
  EXPECT_TRUE(g.are_neighbors(CellId3{1, 1, 1}, CellId3{1, 1, 2}));
  EXPECT_FALSE(g.are_neighbors(CellId3{1, 1, 1}, CellId3{1, 2, 2}));
  EXPECT_FALSE(g.are_neighbors(CellId3{1, 1, 1}, CellId3{1, 1, 1}));
  const Direction3 up = g.direction_between(CellId3{1, 1, 1}, CellId3{1, 1, 2});
  EXPECT_EQ(up.axis, 2);
  EXPECT_EQ(up.sign, 1);
  for (const CellId3 a : g.all_cells())
    for (const CellId3 b : g.neighbors(a)) {
      const Direction3 d = g.direction_between(a, b);
      EXPECT_EQ(g.neighbor(a, d), OptCellId3(b));
    }
}

TEST(Grid3, ManhattanDistance) {
  const Grid3 g(8, 8, 8);
  EXPECT_EQ(g.manhattan(CellId3{0, 0, 0}, CellId3{7, 7, 7}), 21);
  EXPECT_EQ(g.manhattan(CellId3{1, 2, 3}, CellId3{1, 2, 3}), 0);
}

TEST(EntryStrip3, AxisGenericConditions) {
  const CellId3 self{2, 3, 4};
  const Entity3 blocker_up{EntityId{0}, Vec3{2.5, 3.5, 4.75}};
  const Entity3 ok_up{EntityId{1}, Vec3{2.5, 3.5, 4.55}};
  // Up (+z): needs pz + l/2 ≤ 5 − d = 4.7 → pz ≤ 4.6 (4.55 keeps a
  // margin clear of the floating-point representation of d).
  EXPECT_FALSE(entry_strip_clear3(self, CellId3{2, 3, 5},
                                  std::vector<Entity3>{blocker_up}, kP));
  EXPECT_TRUE(entry_strip_clear3(self, CellId3{2, 3, 5},
                                 std::vector<Entity3>{ok_up}, kP));
  // Down (−z): needs pz − l/2 ≥ 4 + d → pz ≥ 4.4.
  EXPECT_TRUE(entry_strip_clear3(self, CellId3{2, 3, 3},
                                 std::vector<Entity3>{blocker_up}, kP));
  // The same entity evaluated against the ±x faces.
  const Entity3 x_blocker{EntityId{2}, Vec3{2.05, 3.5, 4.5}};
  EXPECT_FALSE(entry_strip_clear3(self, CellId3{1, 3, 4},
                                  std::vector<Entity3>{x_blocker}, kP));
  EXPECT_TRUE(entry_strip_clear3(self, CellId3{3, 3, 4},
                                 std::vector<Entity3>{x_blocker}, kP));
  EXPECT_THROW((void)entry_strip_clear3(self, CellId3{3, 4, 4}, {}, kP),
               ContractViolation);
}

TEST(System3, InitialStateMatchesFigure3) {
  System3 sys = tower();
  for (const CellId3 id : sys.grid().all_cells()) {
    const CellState3& c = sys.cell(id);
    EXPECT_TRUE(c.members.empty());
    EXPECT_FALSE(c.failed);
    if (id == sys.target()) {
      EXPECT_EQ(c.dist, Dist::zero());
    } else {
      EXPECT_TRUE(c.dist.is_infinite());
    }
  }
}

TEST(System3, RoutingConvergesToBfs) {
  System3 sys = tower();
  // Manhattan diameter of 4×4×6 from ⟨1,1,5⟩: 3+3+5 = 11.
  for (int k = 0; k < 14; ++k) sys.update();
  const auto rho = sys.reference_distances();
  for (const CellId3 id : sys.grid().all_cells())
    EXPECT_EQ(sys.cell(id).dist, rho[sys.grid().index_of(id)])
        << to_string(id);
}

TEST(System3, RoutingRecoversAroundFailedSlab) {
  System3 sys = tower(4, 4, 6);
  for (int k = 0; k < 14; ++k) sys.update();
  // Fail an entire z = 3 slab except one hole.
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y)
      if (!(x == 3 && y == 3)) sys.fail(CellId3{x, y, 3});
  for (int k = 0; k < 100; ++k) sys.update();
  const auto rho = sys.reference_distances();
  for (const CellId3 id : sys.grid().all_cells()) {
    if (rho[sys.grid().index_of(id)].is_finite()) {
      EXPECT_EQ(sys.cell(id).dist, rho[sys.grid().index_of(id)]);
    }
  }
  // The column below the slab must detour through the ⟨3,3,3⟩ hole.
  EXPECT_GT(sys.cell(CellId3{1, 1, 0}).dist.hops(), 5u);
}

TEST(System3, EntityClimbsTowerAndIsConsumed) {
  System3 sys = tower();
  // No sources interfering: use a separate closed config.
  System3Config cfg;
  cfg.nx = 3;
  cfg.ny = 3;
  cfg.nz = 5;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = CellId3{1, 1, 4};
  System3 closed(cfg);
  closed.seed_entity(CellId3{1, 1, 0}, Vec3{1.5, 1.5, 0.1});
  std::uint64_t rounds = 0;
  while (closed.total_arrivals() < 1 && rounds < 500) {
    closed.update();
    ++rounds;
  }
  EXPECT_EQ(closed.total_arrivals(), 1u);
  EXPECT_EQ(closed.entity_count(), 0u);
}

TEST(System3, TransferPlacesFlushOnZFace) {
  System3Config cfg;
  cfg.nx = 2;
  cfg.ny = 2;
  cfg.nz = 3;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = CellId3{0, 0, 2};
  System3 sys(cfg);
  const EntityId e = sys.seed_entity(CellId3{0, 0, 0}, Vec3{0.5, 0.5, 0.85});
  for (int k = 0; k < 60; ++k) {
    sys.update();
    if (const Entity3* p = sys.cell(CellId3{0, 0, 1}).find(e)) {
      EXPECT_DOUBLE_EQ(p->center.z, 1.1);
      EXPECT_DOUBLE_EQ(p->center.x, 0.5);
      EXPECT_DOUBLE_EQ(p->center.y, 0.5);
      return;
    }
  }
  FAIL() << "entity never crossed the z face";
}

TEST(System3, SaturatingSourceDeliversThroughput) {
  System3 sys = tower();
  for (int k = 0; k < 1500; ++k) sys.update();
  EXPECT_GT(sys.total_arrivals(), 50u);
  EXPECT_EQ(sys.entity_count(),
            sys.total_injected() - sys.total_arrivals());
}

TEST(System3, SeedEntityValidation) {
  System3 sys = tower();
  sys.seed_entity(CellId3{2, 2, 2}, Vec3{2.5, 2.5, 2.5});
  // Too close on all three axes.
  EXPECT_THROW(
      (void)sys.seed_entity(CellId3{2, 2, 2}, Vec3{2.6, 2.6, 2.6}),
      ContractViolation);
  // Separated by ≥ d along z only: legal.
  EXPECT_NO_THROW(
      (void)sys.seed_entity(CellId3{2, 2, 2}, Vec3{2.5, 2.5, 2.85}));
  // Sticking out of the cube.
  EXPECT_THROW(
      (void)sys.seed_entity(CellId3{3, 3, 3}, Vec3{3.05, 3.5, 3.5}),
      ContractViolation);
}

class System3Safety : public ::testing::TestWithParam<std::uint64_t> {};

// Counts the grants at every post-Signal point and keeps the first
// violation of H (Lemma 3) seen there.
struct HWatch3 {
  std::uint64_t grants = 0;
  std::string violation;

  void attach(System3& sys) {
    sys.set_phase_hook([this](const System3& s, UpdatePhase phase) {
      if (phase != UpdatePhase::kAfterSignal) return;
      for (const CellState3& c : s.cells()) grants += c.signal.has_value();
      if (violation.empty())
        if (const auto v = check_h3(s)) violation = to_string(*v);
    });
  }
};

TEST_P(System3Safety, OraclesHoldUnderRandomFailures) {
  System3 sys = tower(4, 4, 6);
  HWatch3 h;
  h.attach(sys);
  Xoshiro256 rng(GetParam());
  for (int k = 0; k < 800; ++k) {
    // Inline fail/recover environment (pf = 0.02, pr = 0.1).
    for (const CellId3 id : sys.grid().all_cells()) {
      if (sys.cell(id).failed) {
        if (rng.bernoulli(0.1)) sys.recover(id);
      } else if (rng.bernoulli(0.02)) {
        sys.fail(id);
      }
    }
    sys.update();
    ASSERT_TRUE(h.violation.empty()) << h.violation << " round " << k;
    const auto vs = check_all3(sys);
    ASSERT_TRUE(vs.empty()) << to_string(vs.front()) << " round " << k;
  }
  EXPECT_GT(sys.total_injected(), 0u);
  // Non-vacuity: H covered thousands of grants.
  EXPECT_GT(h.grants, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, System3Safety,
                         ::testing::Values(1u, 2u, 3u));

TEST(System3, HPredicateHoldsAfterEveryRound) {
  // H is a statement about the post-Signal state: after Move the signals
  // are unchanged but entities have moved, so H may legitimately fail at
  // the end of a round. It is checked at the phase hook; Safe, bounds
  // and disjointness after every round.
  System3 sys = tower();
  HWatch3 h;
  h.attach(sys);
  for (int k = 0; k < 400; ++k) {
    sys.update();
    ASSERT_TRUE(h.violation.empty()) << h.violation << " round " << k;
    ASSERT_TRUE(check_all3(sys).empty());
  }
  EXPECT_GT(h.grants, 0u);
}

TEST(System3, PlanarInstanceMatches2DThroughputClosely) {
  // A 4×1×8 box is the 2-D 4×8 strip; the 3-D implementation must behave
  // like the 2-D one on it. Compare against the known 2-D straight-column
  // saturated throughput for these parameters (v/l/rs as Fig. 7 with
  // v = 0.1): ~0.0816 entities/round.
  System3Config cfg;
  cfg.nx = 4;
  cfg.ny = 1;
  cfg.nz = 8;
  cfg.params = Params(0.25, 0.05, 0.1);
  cfg.sources = {CellId3{1, 0, 0}};
  cfg.target = CellId3{1, 0, 7};
  System3 sys(cfg);
  for (int k = 0; k < 2500; ++k) sys.update();
  const double thr =
      static_cast<double>(sys.total_arrivals()) / 2500.0;
  EXPECT_NEAR(thr, 0.0816, 0.01);
}

TEST(System3, FrozenWhenWalledIn) {
  System3Config cfg;
  cfg.nx = 3;
  cfg.ny = 3;
  cfg.nz = 3;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = CellId3{2, 2, 2};
  System3 sys(cfg);
  const EntityId e = sys.seed_entity(CellId3{0, 0, 0}, Vec3{0.5, 0.5, 0.5});
  // Fail the entire shell around ⟨0,0,0⟩.
  sys.fail(CellId3{1, 0, 0});
  sys.fail(CellId3{0, 1, 0});
  sys.fail(CellId3{0, 0, 1});
  for (int k = 0; k < 100; ++k) sys.update();
  const Entity3* p = sys.cell(CellId3{0, 0, 0}).find(e);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->center, (Vec3{0.5, 0.5, 0.5}));
  EXPECT_EQ(sys.total_arrivals(), 0u);
}

// --- System3Golden: the whole per-round state, pinned ------------------
//
// A source at each bottom corner of the tower feeds one target, so cells
// see several nonempty predecessors at once and the token rotates among
// them; a seeded fail/recover stream (target exempt) resets cells
// mid-flight. Every round folds every cell's Figure-3 variables and
// members into one digest, and every 100 rounds the BFS reference ρ too.
// The literals pin the protocol step on this lattice.

void fold_id(snapshot::DigestAccumulator& d, const OptCellId3& id) {
  d.boolean(id.has_value());
  if (id.has_value()) {
    d.i32(id->x);
    d.i32(id->y);
    d.i32(id->z);
  }
}

void fold_dist(snapshot::DigestAccumulator& d, Dist x) {
  d.u64(x.is_infinite() ? ~0ULL : x.hops());
}

struct GoldenRun3 {
  std::uint64_t digest = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t injected = 0;
  std::uint64_t multi_pred_cell_rounds = 0;  ///< |NEPrev| ≥ 2
  std::uint64_t grant_handoffs = 0;  ///< grant to a new holder
};

GoldenRun3 run_golden3(std::uint64_t seed) {
  System3Config cfg;
  cfg.nx = 4;
  cfg.ny = 4;
  cfg.nz = 6;
  cfg.params = kP;
  cfg.sources = {CellId3{0, 0, 0}, CellId3{3, 0, 0}, CellId3{0, 3, 0},
                 CellId3{3, 3, 0}};
  cfg.target = CellId3{1, 1, 5};
  System3 sys(cfg);
  const Grid3& g = sys.grid();
  Xoshiro256 rng(seed);
  snapshot::DigestAccumulator d;
  GoldenRun3 out;
  std::vector<OptCellId3> last_grant(g.cell_count());
  for (int k = 0; k < 800; ++k) {
    for (const CellId3 id : g.all_cells()) {
      if (id == cfg.target) continue;
      if (sys.cell(id).failed) {
        if (rng.bernoulli(0.1)) sys.recover(id);
      } else if (rng.bernoulli(0.02)) {
        sys.fail(id);
      }
    }
    sys.update();
    EXPECT_TRUE(check_all3(sys).empty()) << "round " << k;
    for (const CellId3 id : g.all_cells()) {
      const CellState3& c = sys.cell(id);
      d.boolean(c.failed);
      fold_dist(d, c.dist);
      fold_id(d, c.next);
      fold_id(d, c.token);
      fold_id(d, c.signal);
      d.u64(neighbor_count(c.ne_prev));
      for (const CellId3 p : neighbors_in(id, c.ne_prev)) fold_id(d, p);
      d.u64(c.members.size());
      for (const Entity3& e : c.members) {
        d.u64(e.id.value);
        d.f64(e.center.x);
        d.f64(e.center.y);
        d.f64(e.center.z);
      }
      if (neighbor_count(c.ne_prev) >= 2) ++out.multi_pred_cell_rounds;
      OptCellId3& last = last_grant[g.index_of(id)];
      if (c.signal.has_value()) {
        if (last.has_value() && *last != *c.signal) ++out.grant_handoffs;
        last = c.signal;
      }
    }
    if (k % 100 == 99)
      for (const Dist x : sys.reference_distances()) fold_dist(d, x);
  }
  out.digest = d.value();
  out.arrivals = sys.total_arrivals();
  out.injected = sys.total_injected();
  return out;
}

TEST(System3Golden, SeedOnePinsStateArrivalsAndTokenTraffic) {
  const GoldenRun3 r = run_golden3(1);
  EXPECT_EQ(r.digest, 0xa8b3ac54e287907eULL);
  EXPECT_EQ(r.arrivals, 128u);
  EXPECT_EQ(r.injected, 210u);
  // Non-vacuity: the run exercises rotation among several predecessors.
  EXPECT_EQ(r.multi_pred_cell_rounds, 5418u);
  EXPECT_EQ(r.grant_handoffs, 2113u);
}

TEST(System3Golden, SeedTwoPinsStateArrivalsAndTokenTraffic) {
  const GoldenRun3 r = run_golden3(2);
  EXPECT_EQ(r.digest, 0x57d3a955d40fe0f5ULL);
  EXPECT_EQ(r.arrivals, 133u);
  EXPECT_EQ(r.injected, 210u);
  EXPECT_EQ(r.multi_pred_cell_rounds, 5261u);
  EXPECT_EQ(r.grant_handoffs, 2004u);
}

TEST(System3Golden, TwoPredecessorsShareTheTokenAndABlockKeepsIt) {
  // Every neighbor of the target ⟨1,1,3⟩ but x = ⟨1,1,2⟩ is failed, so
  // x's live neighbors a = ⟨0,1,2⟩ and b = ⟨1,1,1⟩ both route through x.
  System3Config cfg;
  cfg.nx = 3;
  cfg.ny = 3;
  cfg.nz = 4;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = CellId3{1, 1, 3};
  System3 sys(cfg);
  const CellId3 x{1, 1, 2};
  const CellId3 a{0, 1, 2};
  const CellId3 b{1, 1, 1};
  for (const CellId3 nb : sys.grid().neighbors(cfg.target))
    if (nb != x) sys.fail(nb);
  for (int k = 0; k < 20; ++k) sys.update();
  ASSERT_EQ(sys.cell(a).next, OptCellId3{x});
  ASSERT_EQ(sys.cell(b).next, OptCellId3{x});
  sys.seed_entity(a, Vec3{0.5, 1.5, 2.5});
  sys.seed_entity(b, Vec3{1.5, 1.5, 1.5});
  // x's own entity occupies the strip toward b: pz − l/2 = 2.05 < 2 + d.
  sys.seed_entity(x, Vec3{1.5, 1.5, 2.15});

  // Round 1: x acquires the smaller id, grants it, and rotates the token
  // to the other predecessor (a < b).
  sys.update();
  EXPECT_EQ(neighbor_count(sys.cell(x).ne_prev), 2u);
  EXPECT_EQ(sys.cell(x).signal, OptCellId3{a});
  EXPECT_EQ(sys.cell(x).token, OptCellId3{b});

  // Round 2: x's entity climbed v toward the target but still occupies
  // the strip toward the token holder b, so x blocks everyone and keeps
  // serving b.
  ASSERT_FALSE(entry_strip_clear3(x, b, sys.cell(x).members, kP));
  sys.update();
  EXPECT_EQ(sys.cell(x).signal, OptCellId3{});
  EXPECT_EQ(sys.cell(x).token, OptCellId3{b});
}

}  // namespace
}  // namespace cellflow
